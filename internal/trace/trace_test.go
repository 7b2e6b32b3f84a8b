package trace

import (
	"encoding/csv"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func ev(backend string, op Op, bytes int64, cost time.Duration) Event {
	return Event{Backend: backend, Op: op, Bytes: bytes, Cost: cost, Proc: "p"}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(ev("b", OpRead, 1, time.Second)) // must not panic
	if r.Events() != nil || r.Len() != 0 {
		t.Fatal("nil recorder returned data")
	}
	r.Reset()
}

func TestRecordAndEvents(t *testing.T) {
	r := New(0)
	r.Record(ev("disk", OpWrite, 100, time.Second))
	r.Record(ev("disk", OpRead, 50, 2*time.Second))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.Events()
	if evs[0].Op != OpWrite || evs[1].Op != OpRead {
		t.Fatalf("order lost: %v", evs)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLimitDropsOldest(t *testing.T) {
	r := New(3)
	for i := 0; i < 10; i++ {
		r.Record(Event{Backend: "b", Op: OpRead, Bytes: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Bytes != 7 || evs[2].Bytes != 9 {
		t.Fatalf("limit window = %v", evs)
	}
}

func TestCount(t *testing.T) {
	r := New(0)
	r.Record(ev("tape", OpRead, 1, 0))
	r.Record(ev("tape", OpMount, 0, 0))
	r.Record(ev("disk", OpRead, 1, 0))
	if r.Count("tape", OpRead) != 1 || r.Count("", OpRead) != 2 || r.Count("tape", "") != 2 {
		t.Fatalf("counts: %d %d %d", r.Count("tape", OpRead), r.Count("", OpRead), r.Count("tape", ""))
	}
}

func TestSummaryAggregates(t *testing.T) {
	r := New(0)
	r.Record(ev("disk", OpWrite, 100, time.Second))
	r.Record(ev("disk", OpWrite, 200, 2*time.Second))
	r.Record(ev("disk", OpRead, 10, time.Second))
	r.Record(ev("tape", OpWrite, 5, time.Second))
	sum := r.summary()
	if len(sum) != 3 {
		t.Fatalf("summary rows = %d", len(sum))
	}
	// Sorted by backend then op: disk/read, disk/write, tape/write.
	if sum[1].Backend != "disk" || sum[1].Op != OpWrite || sum[1].Calls != 2 || sum[1].Bytes != 300 || sum[1].Cost != 3*time.Second {
		t.Fatalf("disk/write line = %+v", sum[1])
	}
	s := r.SummaryString()
	if !strings.Contains(s, "disk") || !strings.Contains(s, "tape") {
		t.Fatalf("summary string:\n%s", s)
	}
}

// TestCSVRoundTripHostilePaths is the regression test for the
// unescaped-CSV bug: paths and proc names containing commas, quotes and
// newlines must survive a write/read round trip with the event stream
// intact.  The old fmt.Fprintf writer sheared the "a,b" path into two
// fields.
func TestCSVRoundTripHostilePaths(t *testing.T) {
	hostile := []Event{
		{At: time.Second, Proc: "p,0", Backend: "disk", Op: OpWrite, Path: `data/a,b.dat`, Bytes: 7, Cost: time.Millisecond},
		{At: 2 * time.Second, Proc: `p"quote`, Backend: "tape", Op: OpRead, Path: `odd "name".h5`, Bytes: 9, Cost: 2 * time.Millisecond},
		{At: 3 * time.Second, Proc: "p2", Backend: "disk", Op: OpOpen, Path: "line\nbreak", Bytes: 0, Cost: time.Microsecond},
	}
	r := New(0)
	for _, e := range hostile {
		r.Record(e)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("csv read: %v\ncsv:\n%s", err, sb.String())
	}
	if got := rows[1:]; len(got) != len(hostile) {
		t.Fatalf("round trip: %d events, want %d\ncsv:\n%s", len(got), len(hostile), sb.String())
	}
	for i, e := range hostile {
		// at_s, proc, backend, op, path, bytes, cost_s
		got := rows[i+1]
		if got[1] != e.Proc || got[4] != e.Path || got[2] != e.Backend ||
			got[3] != string(e.Op) || got[5] != strconv.FormatInt(e.Bytes, 10) {
			t.Errorf("event %d round-tripped to %q, want %+v", i, got, e)
		}
	}
}

// TestCountNoAlloc is the regression test for the Events()-copy bug:
// Count in a loop used to copy the whole retained slice per call.
func TestCountNoAlloc(t *testing.T) {
	r := New(0)
	for i := 0; i < 4096; i++ {
		r.Record(ev("disk", OpWrite, int64(i), time.Millisecond))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r.Count("disk", OpWrite) != 4096 {
			t.Fatal("bad count")
		}
	})
	if allocs != 0 {
		t.Fatalf("Count allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkCount(b *testing.B) {
	r := New(0)
	for i := 0; i < 8192; i++ {
		r.Record(ev("disk", OpWrite, int64(i), time.Millisecond))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Count("disk", OpWrite)
	}
}

func BenchmarkSummary(b *testing.B) {
	r := New(0)
	for i := 0; i < 8192; i++ {
		r.Record(ev("disk", Op([]string{"read", "write"}[i%2]), int64(i), time.Millisecond))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.summary()
	}
}

// TestConcurrentStress interleaves Record/Count/Summary/Reset/WriteCSV
// with the metrics fold; run with -race this pins the locking scheme.
func TestConcurrentStress(t *testing.T) {
	r := New(512)
	m := NewMetrics()
	r.SetMetrics(m)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r.Record(Event{Proc: "p", Backend: "disk", Op: OpWrite, Path: "x,y", Bytes: int64(i), Cost: time.Duration(i) * time.Microsecond})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			r.Count("disk", OpWrite)
			r.summary()
			m.Snapshot()
			var sb strings.Builder
			if err := r.WriteCSV(&sb); err != nil {
				t.Error(err)
				return
			}
			r.Reset()
			m.Reset()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
}

func TestWriteCSV(t *testing.T) {
	r := New(0)
	r.Record(Event{At: time.Second, Proc: "p0", Backend: "disk", Op: OpWrite, Path: "a/b", Bytes: 42, Cost: time.Millisecond})
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "at_s,proc,backend,op,path,bytes,cost_s\n") {
		t.Fatalf("csv header: %q", out)
	}
	if !strings.Contains(out, "1.000000,p0,disk,write,a/b,42,0.001000") {
		t.Fatalf("csv row: %q", out)
	}
}
