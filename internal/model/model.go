// Package model defines the storage-device cost models behind the
// reproduction's virtual clocks.
//
// The paper's equation (1) decomposes a single I/O call in the
// distributed environment as
//
//	T(s) = T_conn + T_open + T_seek + T_read/write(s) + T_fileclose + T_connclose
//
// where s is the size of a single data transfer.  Params carries exactly
// those components for one storage resource, with the transfer term
// modelled as a fixed per-call latency plus size/bandwidth.  The presets
// are calibrated to the paper's Table 1 (the constant terms) and to the
// worked example in §4.2 and the figure-11 prediction screen (the
// bandwidths); see DESIGN.md §5 for the derivation.
package model

import (
	"fmt"
	"time"
)

// Op distinguishes read from write costs: Table 1 lists them separately
// (for example remote-disk close is 0.63 s for read, 0.83 s for write).
type Op int

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// MiB is the transfer-size unit used throughout the reproduction; the
// paper's 128×128×128 float dataset is exactly 8 MiB.
const MiB = 1 << 20

// Params is the eq. (1) cost model for one storage resource.
type Params struct {
	// Name identifies the resource class in reports ("localdisk", ...).
	Name string

	// Conn and ConnClose are the communication setup/teardown times; zero
	// for the local filesystem.
	Conn      time.Duration
	ConnClose time.Duration

	// OpenRead/OpenWrite and CloseRead/CloseWrite are the per-file-open
	// constants of Table 1.
	OpenRead   time.Duration
	OpenWrite  time.Duration
	CloseRead  time.Duration
	CloseWrite time.Duration

	// Seek is the constant file-seek term (random-access media).  Tape
	// positioning is modelled separately by the tape package, which winds
	// media proportionally to the head movement.
	Seek time.Duration

	// PerCall is the fixed latency of one native read/write call (request
	// round trip, kernel crossing); it is what makes many small calls so
	// much worse than one large call on remote resources.
	PerCallRead  time.Duration
	PerCallWrite time.Duration

	// ReadBW and WriteBW are sustained transfer bandwidths in bytes per
	// second of simulated time.
	ReadBW  float64
	WriteBW float64

	// MountLatency is the tape readiness delay ("a tape system such as
	// HPSS requires a minimum of 20 to 40 seconds to be ready"); zero for
	// disks.
	MountLatency time.Duration

	// WindPerByte is the tape head repositioning cost per byte of distance
	// between consecutive accesses; zero for disks.
	WindPerByte time.Duration
}

// Open returns the file-open constant for op.
func (p Params) Open(op Op) time.Duration {
	if op == Read {
		return p.OpenRead
	}
	return p.OpenWrite
}

// Close returns the file-close constant for op.
func (p Params) Close(op Op) time.Duration {
	if op == Read {
		return p.CloseRead
	}
	return p.CloseWrite
}

// PerCall returns the fixed per-native-call latency for op.
func (p Params) PerCall(op Op) time.Duration {
	if op == Read {
		return p.PerCallRead
	}
	return p.PerCallWrite
}

// BW returns the sustained bandwidth for op in bytes/second.
func (p Params) BW(op Op) float64 {
	if op == Read {
		return p.ReadBW
	}
	return p.WriteBW
}

// Xfer returns the time to move n bytes in one native call: the fixed
// per-call latency plus n / bandwidth.  A zero bandwidth means the
// transfer term is free (used by the meta-data store, whose access the
// paper treats as inexpensive).
func (p Params) Xfer(op Op, n int64) time.Duration {
	d := p.PerCall(op)
	if bw := p.BW(op); bw > 0 && n > 0 {
		d += time.Duration(float64(n) / bw * float64(time.Second))
	}
	return d
}

// CallTotal returns the full eq. (1) cost of a standalone call of size n:
// connect, open, seek, transfer, close, connection close.  The run-time
// library usually amortizes the constants across many transfers; this is
// the cost of the naive single-shot access.
func (p Params) CallTotal(op Op, n int64) time.Duration {
	return p.Conn + p.Open(op) + p.Seek + p.Xfer(op, n) + p.Close(op) + p.ConnClose
}

// LocalDisk2000 models the SP2 node's SSA-disk local filesystem under the
// D-OL run-time library.  Table 1: open 0.20/0.21 s, close 0.001 s, no
// connection cost.  Bandwidth from the §4.2 worked example: a 2 MiB
// collective dump costs ≈0.12 s, giving ≈17 MiB/s effective.
func LocalDisk2000() Params {
	return Params{
		Name:         "localdisk",
		OpenRead:     200 * time.Millisecond,
		OpenWrite:    210 * time.Millisecond,
		CloseRead:    1 * time.Millisecond,
		CloseWrite:   1 * time.Millisecond,
		Seek:         100 * time.Microsecond,
		PerCallRead:  300 * time.Microsecond,
		PerCallWrite: 300 * time.Microsecond,
		ReadBW:       20 * MiB, // D-OL reads slightly worse than writes per the paper
		WriteBW:      17 * MiB,
	}
}

// RemoteDisk2000 models SDSC remote disks reached through SRB over the
// year-2000 WAN.  Table 1: conn 0.44 s, open 0.42 s, seek 0.40 s, close
// 0.63/0.83 s, connclose 0.2 ms.  Bandwidth from the worked example
// (2 MiB dump ≈ 8.47 s ⇒ ≈0.25 MiB/s through SRB).
func RemoteDisk2000() Params {
	return Params{
		Name:         "remotedisk",
		Conn:         440 * time.Millisecond,
		ConnClose:    200 * time.Microsecond,
		OpenRead:     420 * time.Millisecond,
		OpenWrite:    420 * time.Millisecond,
		CloseRead:    630 * time.Millisecond,
		CloseWrite:   830 * time.Millisecond,
		Seek:         400 * time.Millisecond,
		PerCallRead:  30 * time.Millisecond,
		PerCallWrite: 30 * time.Millisecond,
		ReadBW:       0.27 * MiB,
		WriteBW:      0.25 * MiB,
	}
}

// RemoteTape2000 models SDSC's HPSS tape class reached through SRB.
// Table 1: conn 0.81 s, open 6.17 s, close 0.46/0.42 s.  Effective
// bandwidth back-derived from figure 11 (an 8 MiB dataset predicts
// 3036.3 s over 21 dumps ⇒ ≈0.057 MiB/s), and the 20–40 s readiness
// latency is modelled as a 25 s cartridge mount.
func RemoteTape2000() Params {
	return Params{
		Name:         "remotetape",
		Conn:         810 * time.Millisecond,
		ConnClose:    200 * time.Microsecond,
		OpenRead:     6170 * time.Millisecond,
		OpenWrite:    6170 * time.Millisecond,
		CloseRead:    460 * time.Millisecond,
		CloseWrite:   420 * time.Millisecond,
		PerCallRead:  50 * time.Millisecond,
		PerCallWrite: 50 * time.Millisecond,
		ReadBW:       0.057 * MiB,
		WriteBW:      0.057 * MiB,
		MountLatency: 25 * time.Second,
		WindPerByte:  time.Second / (40 * MiB), // fast-wind ≈40 MiB/s ⇒ ≈23 ns/byte
	}
}

// LocalDB2000 models a local relational database used as a bulk data
// repository (the paper lists "local databases" among the storage
// resources an application can be associated with).  Access goes
// through the vendor's embedded API: opens are cheap, every call pays
// query-processing overhead, and the sustained blob bandwidth sits well
// below the raw disks the database lives on.
func LocalDB2000() Params {
	return Params{
		Name:         "localdb",
		Conn:         120 * time.Millisecond, // embedded API session setup
		ConnClose:    5 * time.Millisecond,
		OpenRead:     15 * time.Millisecond, // prepared-statement lookup
		OpenWrite:    25 * time.Millisecond,
		CloseRead:    2 * time.Millisecond,
		CloseWrite:   40 * time.Millisecond, // commit
		PerCallRead:  8 * time.Millisecond,
		PerCallWrite: 12 * time.Millisecond,
		ReadBW:       6 * MiB,
		WriteBW:      4 * MiB,
	}
}

// MetaDB2000 models the local Postgres meta-data store.  The paper treats
// meta-data access as inexpensive and provides no run-time library for
// it; we charge a small constant per operation.
func MetaDB2000() Params {
	return Params{
		Name:         "metadb",
		Conn:         20 * time.Millisecond,
		ConnClose:    time.Millisecond,
		OpenRead:     2 * time.Millisecond,
		OpenWrite:    2 * time.Millisecond,
		CloseRead:    time.Millisecond,
		CloseWrite:   time.Millisecond,
		PerCallRead:  2 * time.Millisecond,
		PerCallWrite: 3 * time.Millisecond,
	}
}
