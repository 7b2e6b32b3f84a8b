// Package srbnet carries the SRB middleware protocol over real TCP.
//
// The paper reaches SDSC's remote disks and HPSS through the SRB
// client-server middleware across the wide-area network.  This package
// provides that network path: a Server exposes an srb.Broker on a TCP
// listener, and Client implements storage.Backend by speaking the
// protocol, so applications are oblivious to whether a resource is wired
// in-process or across a socket.
//
// Frames are length-prefixed little-endian binary messages over pooled
// buffers (see wire.go for the layout): the steady-state read/write
// path allocates nothing, queued frames are coalesced into one writev,
// and opPutFile/opGetFile bodies above the chunk threshold stream as
// bounded chunk frames, so a whole file is never materialized as one
// wire message on either side.  A connection opens with a 4-byte magic
// preamble, the protocol-version check; a server closes a connection
// that opens with anything else without replying.
//
// Virtual time crosses the wire explicitly: each request carries the
// client process's logical clock, the server replays the operation
// against its shared device resources starting at that instant, and the
// response returns the completion time which the client clock advances
// to.  Device contention between clients is therefore preserved even
// over TCP.
//
// The protocol multiplexes: each request carries a client-assigned Tag
// echoed by the response, so many RPCs are in flight on one connection
// and responses return in completion order.  Because every operation is
// replayed at the caller's logical instant, reordering on the wire
// cannot change the simulated outcome.  Sessions are addressed by a
// server-assigned Sess id rather than bound to a connection, which lets
// pooled connections carry any session's traffic, and PID names the
// calling rank so the server charges per-rank clocks (seek locality is
// tracked per process at the device layer).  Vectored ops (opReadV /
// opWriteV) and whole-file ops (opPutFile / opGetFile) coalesce call
// sequences into single round trips without changing their
// virtual-time cost.
package srbnet

import (
	"errors"

	"repro/internal/srb"
	"repro/internal/storage"
	"time"
)

// opCode identifies a request type.
type opCode uint8

const (
	opConnect opCode = iota + 1
	opOpen
	opRead
	opWrite
	opStat
	opList
	opRemove
	opCloseHandle
	opCloseSession
	opReadV
	opWriteV
	opPutFile
	opGetFile
	// opChunk is one continuation frame of a chunked opPutFile body:
	// same Tag as the opening opPutFile frame, Data at Off, flagLast on
	// the final chunk.
	opChunk
)

// wireVec is one chunk of a vectored transfer.  Writes carry Data;
// reads carry N, the number of bytes wanted at Off.
type wireVec struct {
	Off  int64
	N    int
	Data []byte
}

// request is one client→server frame.
type request struct {
	Op opCode
	// Flags carries the chunk-streaming bits (flagChunked/flagLast).
	Flags uint8
	Tag   uint64 // client-assigned; echoed by the response

	// Sess addresses a server-side session (all ops except connect).
	// PID names the calling rank so the server replays the op on that
	// rank's clock.
	Sess uint64
	PID  uint64

	Now    time.Duration // client's logical clock at issue time
	User   string
	Secret string
	// Resource names the broker resource (connect only).
	Resource string
	Path     string
	Mode     storage.AMode
	Handle   uint64
	Off      int64
	N        int // read length; for opPutFile, the total body length
	Data     []byte
	Vecs     []wireVec // vectored ops

	// Non-wire bookkeeping: the codec skips the unexported fields.
	pooled           bool          // came from reqPool; putRequest recycles it
	frame            *frameBuf     // decode: the buffer Data/Vecs alias
	stream           chan *request // server side: inbound opChunk frames
	releaseAfterSend bool          // client writer recycles after the writev
	// sent is set atomically by the connection writer once the frame is
	// fully encoded.  It is the happens-before edge that lets a caller
	// recycle the request after its response arrives: the network round
	// trip orders the two in real time, but only this flag orders them
	// for the memory model.
	sent uint32
}

// errCode classifies failures across the wire so errors.Is keeps working
// on the client side.
type errCode uint8

const (
	errNone errCode = iota
	errNotExist
	errExist
	errReadOnly
	errClosed
	errDown
	errCapacity
	errBadPath
	errAuth
	errNoResource
	errOverload
	errOther
	// errWrongShard is a cluster redirect: the broker does not own the
	// path's shard, and ErrMsg carries the owning broker's address.
	// Appended after errOther so existing wire values are unchanged.
	errWrongShard
)

// ErrWrongShard is the sentinel under every shard redirect.
var ErrWrongShard = errors.New("srbnet: wrong shard")

// WrongShardError is the decoded redirect: the path belongs to the
// broker at Addr.  The cluster-aware client follows it; a plain client
// surfaces it, which is itself a readable hint to reconnect with
// WithCluster.
type WrongShardError struct{ Addr string }

func (e *WrongShardError) Error() string {
	return "srbnet: wrong shard (owner " + e.Addr + ")"
}

func (e *WrongShardError) Unwrap() error { return ErrWrongShard }

// ErrRedirectLoop caps redirect chasing: the cluster session refuses
// to follow more redirects for one call than the cluster has brokers
// (plus slack), so a cyclic or flapping shard map fails typed instead
// of spinning.
var ErrRedirectLoop = errors.New("srbnet: shard redirect loop")

func encodeErr(err error) (errCode, string) {
	switch {
	case err == nil:
		return errNone, ""
	case errors.Is(err, storage.ErrNotExist):
		return errNotExist, err.Error()
	case errors.Is(err, storage.ErrExist):
		return errExist, err.Error()
	case errors.Is(err, storage.ErrReadOnly):
		return errReadOnly, err.Error()
	case errors.Is(err, storage.ErrClosed):
		return errClosed, err.Error()
	case errors.Is(err, storage.ErrDown):
		return errDown, err.Error()
	case errors.Is(err, storage.ErrCapacity):
		return errCapacity, err.Error()
	case errors.Is(err, storage.ErrBadPath):
		return errBadPath, err.Error()
	case errors.Is(err, storage.ErrOverload):
		return errOverload, err.Error()
	case errors.Is(err, srb.ErrAuth):
		return errAuth, err.Error()
	case errors.Is(err, srb.ErrNoResource):
		return errNoResource, err.Error()
	case errors.Is(err, ErrWrongShard):
		// The wire message is the owner address, not prose: the
		// client-side decode rebuilds the typed redirect from it.
		var ws *WrongShardError
		if errors.As(err, &ws) {
			return errWrongShard, ws.Addr
		}
		return errWrongShard, ""
	default:
		return errOther, err.Error()
	}
}

// wireError reconstructs a client-side error carrying both the sentinel
// and the server's message.
type wireError struct {
	sentinel error
	msg      string
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func decodeErr(code errCode, msg string) error {
	var sentinel error
	switch code {
	case errNone:
		return nil
	case errWrongShard:
		return &WrongShardError{Addr: msg}
	case errNotExist:
		sentinel = storage.ErrNotExist
	case errExist:
		sentinel = storage.ErrExist
	case errReadOnly:
		sentinel = storage.ErrReadOnly
	case errClosed:
		sentinel = storage.ErrClosed
	case errDown:
		sentinel = storage.ErrDown
	case errCapacity:
		sentinel = storage.ErrCapacity
	case errBadPath:
		sentinel = storage.ErrBadPath
	case errOverload:
		sentinel = storage.ErrOverload
	case errAuth:
		sentinel = srb.ErrAuth
	case errNoResource:
		sentinel = srb.ErrNoResource
	default:
		sentinel = errors.New("srbnet: remote error")
	}
	if msg == "" {
		msg = sentinel.Error()
	}
	return &wireError{sentinel: sentinel, msg: msg}
}

// response is one server→client frame.
type response struct {
	Tag uint64 // echo of the request's tag
	Err errCode
	// Flags carries the chunk-streaming bits for opGetFile bodies.
	Flags  uint8
	ErrMsg string
	// RetryAfterNs carries the scheduler's honor-after hint alongside
	// errOverload: nanoseconds until the server expects its queue to
	// have drained enough to admit the request.
	RetryAfterNs int64
	Now          time.Duration // server-side completion time
	Sess         uint64        // connect: the new session's wire id
	Handle       uint64
	N            int
	Size         int64
	Off          int64 // chunked opGetFile: file offset of this frame's Data
	Data         []byte
	Vecs         [][]byte // vectored reads: one buffer per chunk
	Info         storage.FileInfo
	Infos        []storage.FileInfo

	// Non-wire bookkeeping, as on request.
	pooled bool
	frame  *frameBuf // decode: the buffer Data/Vecs alias
	dbuf   *frameBuf // server side: pooled backing for Data
}

// overloadWireError is the client-side decoding of errOverload + a
// RetryAfterNs hint.  It keeps the wireError sentinel chain (so
// errors.Is(err, storage.ErrOverload) and resilient.Transient hold)
// and re-exposes the hint to resilient.RetryAfterOf.
type overloadWireError struct {
	wireError
	after time.Duration
}

func (e *overloadWireError) RetryAfter() time.Duration { return e.after }

// decodeRespErr reconstructs the full client-side error for a failed
// response, attaching the honor-after hint when present.
func decodeRespErr(resp *response) error {
	err := decodeErr(resp.Err, resp.ErrMsg)
	if err == nil {
		return nil
	}
	if resp.Err == errOverload && resp.RetryAfterNs > 0 {
		we := err.(*wireError)
		return &overloadWireError{wireError: *we, after: time.Duration(resp.RetryAfterNs)}
	}
	return err
}
