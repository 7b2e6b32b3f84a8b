package experiments

import "testing"

// TestWorkflowExperiment runs the full chain at test scale and checks
// the acceptance gate: predictions within ±15% of composed
// measurements at every overlap level, provisioned strictly faster.
func TestWorkflowExperiment(t *testing.T) {
	r, err := Workflow(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", WorkflowString(r))
	if len(r.Overlaps) < 3 {
		t.Fatalf("want >=3 overlap levels, got %d", len(r.Overlaps))
	}
	for _, row := range r.Overlaps {
		if row.Err() > 0.15 {
			t.Errorf("overlap %.2f: unprovisioned error %.1f%% > 15%%", row.Overlap, 100*row.Err())
		}
		if row.ProvErr() > 0.15 {
			t.Errorf("overlap %.2f: provisioned error %.1f%% > 15%%", row.Overlap, 100*row.ProvErr())
		}
		if row.ProvMeasured >= row.Measured {
			t.Errorf("overlap %.2f: provisioned %v not faster than %v", row.Overlap, row.ProvMeasured, row.Measured)
		}
	}
	if r.PrefetchItems == 0 {
		t.Error("plan issued no prefetch items")
	}
	if len(r.Placements) == 0 {
		t.Error("plan placed no intermediates")
	}
	if r.Stats.Hits == 0 {
		t.Error("stage cache saw no hits in the provisioned leg")
	}
	if err := workflowGate(r.Headline()); err != nil {
		t.Errorf("workflow gate: %v", err)
	}
}
