package experiments

import (
	"strings"
	"testing"
)

// TestCrashMatrixRecovers runs the full crash-point matrix at test
// scale and asserts every recovery satisfies the durability invariants:
// replay succeeds, the state equals an acked prefix (± one in-flight
// mutation), snapshots are never torn, and adopted cache entries match
// their home bytes.
func TestCrashMatrixRecovers(t *testing.T) {
	rows, err := Crash(TestScale(), 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want one row per crash mode, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Fired != r.Points {
			t.Errorf("%s: only %d/%d crash points fired", r.Mode, r.Fired, r.Points)
		}
		if v := r.Violations(); v != 0 {
			t.Errorf("%s: %d invariant violations:\n%s", r.Mode, v, CrashString(rows))
		}
	}
	if err := crashGate(crashHeadline(rows)); err != nil {
		t.Fatalf("crash gate: %v\n%s", err, CrashString(rows))
	}
	if s := CrashString(rows); !strings.Contains(s, "consistent state") {
		t.Fatalf("CrashString verdict line missing:\n%s", s)
	}
}

// TestCrashCleanRunNotVacuous checks that the disarmed workload really
// exercises staging, journaling and snapshots — Crash would reject a
// vacuous workload, so a successful run at one point suffices.
func TestCrashCleanRunNotVacuous(t *testing.T) {
	rows, err := Crash(TestScale(), 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		total += r.Points
	}
	if total != len(rows) {
		t.Fatalf("want 1 point per mode, got %d over %d modes", total, len(rows))
	}
}
