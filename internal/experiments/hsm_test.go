package experiments

import (
	"strings"
	"testing"
)

// TestHSMBeatsBaseline runs the full experiment — baseline leg, engine
// leg and crash matrix — at test scale and asserts the acceptance
// gate: equal correctness, a mount and hit-rate win, recalls inside
// the deadline bound, and a clean crash matrix.  This is the test CI's
// hsm-smoke job runs under -race.
func TestHSMBeatsBaseline(t *testing.T) {
	res, err := HSM(TestScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d byte mismatches across legs", res.Mismatches)
	}
	if res.MountWin() <= 1 {
		t.Errorf("mount win %.2f× not above 1 (baseline %.2f vs hsm %.2f mounts/day)",
			res.MountWin(), res.BaseMountsPerDay, res.HSMMountsPerDay)
	}
	if res.HSMHitRate <= res.BaseHitRate {
		t.Errorf("hsm hit rate %.3f not above baseline %.3f", res.HSMHitRate, res.BaseHitRate)
	}
	if res.Migrations == 0 || res.Recalls == 0 || res.GCPurged == 0 {
		t.Errorf("vacuous lifecycle: %d migrations, %d recalls, %d purged",
			res.Migrations, res.Recalls, res.GCPurged)
	}
	if !(res.RecallP95 > 0 && res.RecallP95 <= res.RecallBound) {
		t.Errorf("recall p95 %v outside (0, %v]", res.RecallP95, res.RecallBound)
	}
	if res.CrashFired() != res.CrashPoints() || res.CrashViolations() != 0 {
		t.Errorf("crash matrix: %d/%d fired, %d violations",
			res.CrashFired(), res.CrashPoints(), res.CrashViolations())
	}
	if err := hsmGate(res.Headline()); err != nil {
		t.Fatalf("hsm gate: %v\n%s", err, HSMString(res))
	}
	if s := HSMString(res); !strings.Contains(s, "crash-safe") {
		t.Fatalf("HSMString verdict line missing:\n%s", s)
	}
}

// TestHSMScheduleDeterministic pins that both legs replay the exact
// same operation stream: the schedule depends only on its arguments.
func TestHSMScheduleDeterministic(t *testing.T) {
	a, bornA, readsA, removesA := hsmSchedule(14, 3, 10, 42)
	b, bornB, readsB, removesB := hsmSchedule(14, 3, 10, 42)
	if bornA != bornB || readsA != readsB || removesA != removesB {
		t.Fatalf("counters differ: (%d,%d,%d) vs (%d,%d,%d)",
			bornA, readsA, removesA, bornB, readsB, removesB)
	}
	for d := range a {
		if len(a[d]) != len(b[d]) {
			t.Fatalf("day %d length differs", d)
		}
		for i := range a[d] {
			if a[d][i] != b[d][i] {
				t.Fatalf("day %d op %d differs: %+v vs %+v", d, i, a[d][i], b[d][i])
			}
		}
	}
}
