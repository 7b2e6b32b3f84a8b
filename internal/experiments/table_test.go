package experiments

import (
	"maps"
	"testing"
)

// passing is a headline every gated row accepts: the committed bench
// values where a file exists, otherwise what a clean test-scale run
// prints.  TestGatesRejectDoctoredHeadlines breaks one key at a time.
var passing = map[string]map[string]float64{
	"chaos":    {"rows": 4, "completed": 4, "injected": 84, "stage_rows": 3, "stage_completed": 3, "corrupt": 0},
	"staging":  {"direct_pass2_s": 22.1, "staged_pass2_s": 1.4, "hit_rate": 1, "staged_in": 3},
	"calib":    {"err_before": 0.568, "err_after": 0.024, "drifted": 3},
	"qos":      {"isolation_x": 10.06, "mount_win_x": 4, "batches": 6},
	"failover": {"write_error": 0, "io_time_s": 4.74},
	"crash":    {"points": 72, "fired": 72, "violations": 0},
	"hsm": {
		"mismatches": 0, "migrations": 134, "recalls": 265, "gc_purged": 132, "repacks": 2,
		"mount_win_x": 2.15, "hit_rate_baseline": 0.34, "hit_rate_hsm": 0.86,
		"recall_p95_s": 49.9, "recall_bound_s": 94.5, "crash_points": 24, "crash_violations": 0,
	},
	"workflow": {
		"overlap_levels": 3, "max_err": 0.04, "min_speedup": 1.77,
		"prefetch_items": 5, "placements": 2, "cache_hit_rate": 1,
		"makespan_o00_s": 236.1, "makespan_prov_o00_s": 67.4,
	},
	"cluster": {
		"acked_mutations": 80, "lost_acked": 0, "dump_mismatches": 0, "failover_retries": 8,
		"queue_budget_bytes": 6291456, "survivor_budget_bytes": 6291456,
		"single_over_direct_x": 1, "sharded_speedup_x": 2.63,
	},
	"srbnet": {"speedup_x": 8.77, "v3_over_v2_x": 1.79},
}

// TestGatesRejectDoctoredHeadlines feeds every gated row a passing
// headline, then the same headline with one scalar doctored the way a
// failed run would report it, and requires the Check to tell them
// apart.  benchreport exits non-zero on exactly these errors.
func TestGatesRejectDoctoredHeadlines(t *testing.T) {
	doctored := map[string][]struct {
		key string
		val float64
	}{
		"chaos":    {{"completed", 3}, {"stage_completed", 2}, {"corrupt", 1}, {"injected", 0}},
		"staging":  {{"staged_pass2_s", 22.2}, {"hit_rate", 0}, {"staged_in", 0}},
		"calib":    {{"err_after", 0.6}, {"drifted", 0}},
		"qos":      {{"isolation_x", 0.9}, {"mount_win_x", 1}, {"batches", 0}},
		"failover": {{"write_error", 1}, {"io_time_s", 0}},
		"crash":    {{"violations", 1}, {"fired", 71}, {"points", 0}},
		"hsm": {{"mismatches", 1}, {"crash_violations", 1}, {"mount_win_x", 1}, {"hit_rate_hsm", 0.3},
			{"recall_p95_s", 95}, {"recall_p95_s", 0}, {"repacks", 0}, {"crash_points", 0}},
		"workflow": {{"max_err", 0.2}, {"min_speedup", 1}, {"overlap_levels", 2}, {"cache_hit_rate", 0.5},
			{"makespan_prov_o00_s", 240}, {"placements", 0}},
		"cluster": {{"lost_acked", 1}, {"dump_mismatches", 1}, {"failover_retries", 0},
			{"survivor_budget_bytes", 4194304}, {"sharded_speedup_x", 1.9}, {"acked_mutations", 0}},
		"srbnet": {{"speedup_x", 1}, {"v3_over_v2_x", 0.9}},
	}
	for _, e := range All() {
		if e.Check == nil {
			if e.Publish || e.Run == nil {
				t.Errorf("%s: publishes or is frozen but has no Check", e.Name)
			}
			continue
		}
		good, ok := passing[e.Name]
		if !ok || len(doctored[e.Name]) == 0 {
			t.Errorf("%s: gated row without a doctored-headline case; add one", e.Name)
			continue
		}
		if err := e.Check(good); err != nil {
			t.Errorf("%s: passing headline rejected: %v", e.Name, err)
		}
		for _, d := range doctored[e.Name] {
			bad := maps.Clone(good)
			bad[d.key] = d.val
			if e.Check(bad) == nil {
				t.Errorf("%s: Check accepted %s = %g", e.Name, d.key, d.val)
			}
			delete(bad, d.key)
			if e.Check(bad) == nil {
				t.Errorf("%s: Check accepted a headline with no %q", e.Name, d.key)
			}
		}
	}
}

// TestTableShape pins the table's own invariants: unique names, a
// title on every row, and exactly the five published experiments.
func TestTableShape(t *testing.T) {
	seen := map[string]bool{}
	var published []string
	for _, e := range All() {
		if e.Name == "" || e.Title == "" || seen[e.Name] {
			t.Errorf("row %+v: empty or duplicate name/title", e.Name)
		}
		seen[e.Name] = true
		if e.Publish {
			published = append(published, e.Name)
			if e.Run == nil {
				t.Errorf("%s: publishes but cannot run", e.Name)
			}
		}
	}
	want := []string{"qos", "crash", "hsm", "workflow", "cluster"}
	if len(published) != len(want) {
		t.Fatalf("published = %v, want %v", published, want)
	}
	for i := range want {
		if published[i] != want[i] {
			t.Fatalf("published = %v, want %v", published, want)
		}
	}
	if n := len(Names()); n != len(All())-1 {
		t.Errorf("Names() has %d entries for %d rows; only srbnet is frozen", n, len(All()))
	}
}
