package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("op strings: %q %q", Read, Write)
	}
	if Op(9).String() != "Op(9)" {
		t.Fatalf("unknown op: %q", Op(9))
	}
}

func TestXferZeroBandwidthIsFree(t *testing.T) {
	p := Params{Name: "memory"}
	if d := p.Xfer(Write, 10*MiB); d != 0 {
		t.Fatalf("memory transfer cost = %v, want 0", d)
	}
}

func TestXferLinearInSize(t *testing.T) {
	p := LocalDisk2000()
	d1 := p.Xfer(Write, 1*MiB) - p.PerCallWrite
	d2 := p.Xfer(Write, 2*MiB) - p.PerCallWrite
	ratio := float64(d2) / float64(d1)
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("2 MiB / 1 MiB transfer ratio = %v, want ≈2", ratio)
	}
}

// The §4.2 worked example: a 2 MiB collective dump to local disk costs
// ≈0.12 s and to remote disk ≈8.47 s.  Our calibration must land close.
func TestWorkedExampleCalibration(t *testing.T) {
	local := LocalDisk2000()
	if d := local.Xfer(Write, 2*MiB); d < 100*time.Millisecond || d > 140*time.Millisecond {
		t.Fatalf("local 2 MiB dump = %v, want ≈0.12 s", d)
	}
	remote := RemoteDisk2000()
	// Per-dump cost in the paper's measurement includes the per-call WAN
	// overheads; match to within 15%.
	d := remote.Xfer(Write, 2*MiB)
	want := 8470 * time.Millisecond
	if ratio := float64(d) / float64(want); ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("remote 2 MiB dump = %v, want within 15%% of %v", d, want)
	}
}

// Figure 11 calibration: 8 MiB float dataset on tape predicts 3036.3 s
// over 21 dumps ⇒ ≈144.6 s per dump including the 6.17 s open.
func TestFig11TapeCalibration(t *testing.T) {
	tape := RemoteTape2000()
	perDump := tape.Open(Write) + tape.Xfer(Write, 8*MiB) + tape.Close(Write)
	want := 3036.3 / 21 * float64(time.Second)
	if ratio := float64(perDump) / want; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("tape 8 MiB dump = %v, want within 10%% of %v", perDump, time.Duration(want))
	}
}

func TestTable1Ordering(t *testing.T) {
	// The paper's central cost ordering: local ≪ remote disk ≪ tape for
	// the per-call constants and for a representative transfer.
	l, r, tp := LocalDisk2000(), RemoteDisk2000(), RemoteTape2000()
	for _, op := range []Op{Read, Write} {
		if !(l.CallTotal(op, 2*MiB) < r.CallTotal(op, 2*MiB) && r.CallTotal(op, 2*MiB) < tp.CallTotal(op, 2*MiB)) {
			t.Fatalf("%v: cost ordering violated: local %v remote %v tape %v",
				op, l.CallTotal(op, 2*MiB), r.CallTotal(op, 2*MiB), tp.CallTotal(op, 2*MiB))
		}
	}
	if l.Conn != 0 {
		t.Fatalf("local disk must have no connection cost, got %v", l.Conn)
	}
	if tp.MountLatency < 20*time.Second || tp.MountLatency > 40*time.Second {
		t.Fatalf("tape mount latency %v outside the paper's 20–40 s band", tp.MountLatency)
	}
}

func TestAccessorsSelectOp(t *testing.T) {
	r := RemoteDisk2000()
	if r.Close(Read) == r.Close(Write) {
		t.Fatal("remote disk read/write close must differ (Table 1: 0.63 vs 0.83)")
	}
	if r.Open(Read) != r.OpenRead || r.Open(Write) != r.OpenWrite {
		t.Fatal("Open accessor mismatch")
	}
	if r.PerCall(Read) != r.PerCallRead || r.PerCall(Write) != r.PerCallWrite {
		t.Fatal("PerCall accessor mismatch")
	}
	if r.BW(Read) != r.ReadBW || r.BW(Write) != r.WriteBW {
		t.Fatal("BW accessor mismatch")
	}
}

// Property: transfer cost is monotonically non-decreasing in size.
func TestQuickXferMonotone(t *testing.T) {
	p := RemoteTape2000()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.Xfer(Read, x) <= p.Xfer(Read, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CallTotal = constants + Xfer for any size and op.
func TestQuickCallTotalDecomposition(t *testing.T) {
	models := []Params{LocalDisk2000(), RemoteDisk2000(), RemoteTape2000(), MetaDB2000()}
	f := func(n uint32, w bool) bool {
		op := Read
		if w {
			op = Write
		}
		for _, m := range models {
			want := m.Conn + m.Open(op) + m.Seek + m.Xfer(op, int64(n)) + m.Close(op) + m.ConnClose
			if m.CallTotal(op, int64(n)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
