package experiments

import (
	"strings"
	"testing"
)

// TestClusterExperiment runs all three clustered-broker legs at test
// scale and asserts the acceptance gate: no acked mutation lost,
// survivor replicas byte-identical, the fencing window exercised, the
// admission budget re-leased whole, and the sharded run at least 2×
// the single broker.  This is the test CI's cluster-smoke job runs
// under -race.
func TestClusterExperiment(t *testing.T) {
	res, err := Cluster(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.AckedMutations == 0 {
		t.Error("failover leg acked no mutations")
	}
	if res.LostAcked != 0 {
		t.Errorf("%d acked mutations lost on survivors", res.LostAcked)
	}
	if res.DumpMismatches != 0 {
		t.Errorf("%d survivor canonical-dump mismatches", res.DumpMismatches)
	}
	if res.FailoverRetries == 0 {
		t.Error("fencing window was never exercised")
	}
	if res.SurvivorBudget != res.QueueBudget {
		t.Errorf("survivor leases sum to %d, want the full %d budget",
			res.SurvivorBudget, res.QueueBudget)
	}
	// The wall-clock ratio gates only hold when wall time tracks the
	// scaled device waits; under -race the detector's instrumentation
	// dominates the wire path instead, so the ratios are meaningless
	// and only the correctness legs are asserted.
	if raceEnabled {
		t.Log("race detector on: skipping wall-clock ratio gates")
		return
	}
	// The degeneration leg is wall clock and therefore noisy; assert
	// only that the one-address cluster is in the same regime as the
	// direct client, not an integer multiple of it.
	if x := res.SingleOverDirect(); x <= 0 || x > 3 {
		t.Errorf("one-address cluster costs %.2fx the direct client", x)
	}
	if x := res.ShardedSpeedup(); x < 2 {
		t.Errorf("sharded speedup %.2fx below the 2x gate (single %v, sharded %v)",
			x, res.SingleBroker, res.Sharded)
	}
	if err := clusterGate(res.Headline()); err != nil {
		t.Errorf("cluster gate: %v", err)
	}
	out := ClusterString(res)
	for _, want := range []string{"failover:", "budgets:", "degeneration:", "scale-out:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
