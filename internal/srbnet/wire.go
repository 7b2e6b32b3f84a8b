// The wire codec: hand-rolled length-prefixed binary framing, fixed
// little-endian frames with no reflection and no per-payload
// allocation:
//
//	u32  body length (everything after this prefix; capped on decode)
//	u8   op (request) / err code (response)
//	u8   flags (chunked-body streaming)
//	...  fixed numeric fields, then length-prefixed variable sections,
//	     with the bulk Data payload always LAST so it can ride the
//	     writev as its own iovec without being copied into the frame.
//
// Frame buffers, request structs and response structs are all
// sync.Pool-recycled, so the steady-state opRead/opWrite/opReadV/
// opWriteV encode+decode path allocates nothing (pinned by
// TestHotFrameCodecZeroAlloc).  Writers coalesce queued frames into a
// single net.Buffers writev; readers hand out subslices of the pooled
// frame, and the consumer releases the frame once the bytes are copied
// out.
//
// A frame whose declared body length exceeds the configurable cap is
// rejected before any allocation, so a corrupt or hostile length
// prefix cannot OOM either side — it poisons the connection.
package srbnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/storage"
	"time"
)

// Wire limits.  Both sides enforce them; neither is configurable.
const (
	// DefaultMaxFrame caps the declared body length of one decoded
	// frame (and the byte count of one opRead/opReadV response).
	DefaultMaxFrame = 64 << 20
	// DefaultChunkBytes is the streaming chunk size above which
	// opPutFile/opGetFile bodies travel as a sequence of bounded
	// chunk frames instead of one whole-file message.
	DefaultChunkBytes = 256 << 10
	// frameRetainBytes bounds the capacity of buffers returned to the
	// frame pool, so one giant transfer can't pin memory forever.
	frameRetainBytes = 1 << 20
)

// wireMagic is written by the client immediately after dialing and is
// the protocol-version check: the server serves a connection only if
// it opens with these four bytes, and otherwise closes it without
// replying.  A change to the frame layout changes the last byte.
var wireMagic = [4]byte{0xF5, 'S', 'R', '3'}

// Frame flags.
const (
	// flagChunked marks a frame that belongs to a chunked body stream
	// (the first opPutFile frame, every opChunk frame, and every
	// chunked opGetFile response frame).
	flagChunked uint8 = 1 << 0
	// flagLast marks the final frame of a chunked stream.
	flagLast uint8 = 1 << 1
)

var (
	errFrameTooBig   = errors.New("srbnet: frame length exceeds cap")
	errFrameCorrupt  = errors.New("srbnet: corrupt frame")
	errStreamSevered = errors.New("srbnet: chunk stream severed")
)

// frameBuf is one pooled wire buffer.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrame() *frameBuf {
	f := framePool.Get().(*frameBuf)
	f.b = f.b[:0]
	return f
}

func putFrame(f *frameBuf) {
	if f == nil || cap(f.b) > frameRetainBytes {
		return
	}
	framePool.Put(f)
}

// grow returns the buffer resized to exactly n bytes, reallocating
// only when the pooled capacity is too small.
func (f *frameBuf) grow(n int) []byte {
	if cap(f.b) < n {
		f.b = make([]byte, n)
	} else {
		f.b = f.b[:n]
	}
	return f.b
}

var (
	reqPool  = sync.Pool{New: func() any { return new(request) }}
	respPool = sync.Pool{New: func() any { return new(response) }}
)

func getRequest() *request {
	r := reqPool.Get().(*request)
	r.pooled = true
	return r
}

func putRequest(r *request) {
	if r == nil || !r.pooled {
		return
	}
	vecs := r.Vecs[:0]
	*r = request{}
	r.Vecs = vecs
	reqPool.Put(r)
}

// release returns the request and its backing frame to their pools.
func (req *request) release() {
	if req == nil {
		return
	}
	putFrame(req.frame)
	req.frame = nil
	putRequest(req)
}

func getResponse() *response {
	r := respPool.Get().(*response)
	r.pooled = true
	return r
}

func putResponse(r *response) {
	if r == nil || !r.pooled {
		return
	}
	vecs := r.Vecs[:0]
	infos := r.Infos[:0]
	*r = response{}
	r.Vecs = vecs
	r.Infos = infos
	respPool.Put(r)
}

// release returns the response, its backing frame, and its data buffer
// to their pools.
func (resp *response) release() {
	if resp == nil {
		return
	}
	putFrame(resp.frame)
	putFrame(resp.dbuf)
	resp.frame, resp.dbuf = nil, nil
	putResponse(resp)
}

// ownData returns response data the caller may keep: frame-backed
// slices are copied out (the frame is about to be recycled), while a
// buffer assembled from a chunk stream is already heap-owned.
func (resp *response) ownData() []byte {
	if resp.frame == nil || len(resp.Data) == 0 {
		return resp.Data
	}
	return append([]byte(nil), resp.Data...)
}

// --- append-style encoders -------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBlob(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// encodeRequest appends req's frame to f — everything except
// req.Data, which is returned for the caller to writev as the frame's
// trailing bytes (zero-copy for the bulk payload).
func encodeRequest(f *frameBuf, req *request) []byte {
	b := append(f.b, 0, 0, 0, 0) // length prefix, patched below
	b = append(b, byte(req.Op), req.Flags)
	b = appendU64(b, req.Tag)
	b = appendU64(b, req.Sess)
	b = appendU64(b, req.PID)
	b = appendI64(b, int64(req.Now))
	b = appendU64(b, req.Handle)
	b = appendI64(b, req.Off)
	b = appendI64(b, int64(req.N))
	b = appendI64(b, int64(req.Mode))
	b = appendStr(b, req.User)
	b = appendStr(b, req.Secret)
	b = appendStr(b, req.Resource)
	b = appendStr(b, req.Path)
	b = appendU32(b, uint32(len(req.Vecs)))
	for _, v := range req.Vecs {
		b = appendI64(b, v.Off)
		b = appendI64(b, int64(v.N))
		b = appendBlob(b, v.Data)
	}
	b = appendU32(b, uint32(len(req.Data)))
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4+len(req.Data)))
	f.b = b
	return req.Data
}

// encodeResponse is encodeRequest's mirror for server→client frames.
func encodeResponse(f *frameBuf, resp *response) []byte {
	b := append(f.b, 0, 0, 0, 0)
	b = append(b, byte(resp.Err), resp.Flags)
	b = appendU64(b, resp.Tag)
	b = appendI64(b, resp.RetryAfterNs)
	b = appendI64(b, int64(resp.Now))
	b = appendU64(b, resp.Sess)
	b = appendU64(b, resp.Handle)
	b = appendI64(b, int64(resp.N))
	b = appendI64(b, resp.Size)
	b = appendI64(b, resp.Off)
	b = appendStr(b, resp.ErrMsg)
	b = appendU32(b, uint32(len(resp.Vecs)))
	for _, v := range resp.Vecs {
		b = appendBlob(b, v)
	}
	b = appendStr(b, resp.Info.Path)
	b = appendI64(b, resp.Info.Size)
	b = appendU32(b, uint32(len(resp.Infos)))
	for _, fi := range resp.Infos {
		b = appendStr(b, fi.Path)
		b = appendI64(b, fi.Size)
	}
	b = appendU32(b, uint32(len(resp.Data)))
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4+len(resp.Data)))
	f.b = b
	return resp.Data
}

// --- cursor decoder ---------------------------------------------------

// wr is a bounds-checked little-endian cursor over one frame body.
// Every accessor degrades to zero values once a bound is crossed; the
// caller checks ok exactly once at the end.
type wr struct {
	b   []byte
	off int
	ok  bool
}

func (r *wr) need(n int) []byte {
	if !r.ok || n < 0 || len(r.b)-r.off < n {
		r.ok = false
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wr) u8() uint8 {
	s := r.need(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *wr) u32() uint32 {
	s := r.need(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *wr) u64() uint64 {
	s := r.need(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *wr) i64() int64 { return int64(r.u64()) }

// blob returns a length-prefixed section as a subslice of the frame —
// no copy, and a hostile length can never allocate because it is
// checked against the remaining body before use.
func (r *wr) blob() []byte {
	n := int(r.u32())
	if n == 0 {
		return nil
	}
	return r.need(n)
}

func (r *wr) str() string {
	b := r.blob()
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

// decodeRequest parses one frame body into req.  String and data
// sections alias body, so req must be released before the frame is.
func decodeRequest(body []byte, req *request) error {
	r := wr{b: body, ok: true}
	req.Op = opCode(r.u8())
	req.Flags = r.u8()
	req.Tag = r.u64()
	req.Sess = r.u64()
	req.PID = r.u64()
	req.Now = time.Duration(r.i64())
	req.Handle = r.u64()
	req.Off = r.i64()
	req.N = int(r.i64())
	req.Mode = storage.AMode(r.i64())
	req.User = r.str()
	req.Secret = r.str()
	req.Resource = r.str()
	req.Path = r.str()
	nv := int(r.u32())
	vecs := req.Vecs[:0]
	for i := 0; i < nv && r.ok; i++ {
		off := r.i64()
		n := int(r.i64())
		vecs = append(vecs, wireVec{Off: off, N: n, Data: r.blob()})
	}
	req.Vecs = vecs
	req.Data = r.blob()
	if !r.ok || r.off != len(body) {
		return errFrameCorrupt
	}
	return nil
}

// decodeResponse parses one frame body into resp; the hot
// opRead/opWrite shape (no error, no vecs, no infos) allocates
// nothing.
func decodeResponse(body []byte, resp *response) error {
	r := wr{b: body, ok: true}
	resp.Err = errCode(r.u8())
	resp.Flags = r.u8()
	resp.Tag = r.u64()
	resp.RetryAfterNs = r.i64()
	resp.Now = time.Duration(r.i64())
	resp.Sess = r.u64()
	resp.Handle = r.u64()
	resp.N = int(r.i64())
	resp.Size = r.i64()
	resp.Off = r.i64()
	resp.ErrMsg = r.str()
	nv := int(r.u32())
	vecs := resp.Vecs[:0]
	for i := 0; i < nv && r.ok; i++ {
		vecs = append(vecs, r.blob())
	}
	resp.Vecs = vecs
	resp.Info = storage.FileInfo{Path: r.str(), Size: r.i64()}
	ni := int(r.u32())
	infos := resp.Infos[:0]
	for i := 0; i < ni && r.ok; i++ {
		infos = append(infos, storage.FileInfo{Path: r.str(), Size: r.i64()})
	}
	resp.Infos = infos
	resp.Data = r.blob()
	if !r.ok || r.off != len(body) {
		return errFrameCorrupt
	}
	return nil
}

// readFrame reads one length-prefixed frame body into a pooled buffer.
// The prefix is peeked in br's own buffer (no header escapes to the
// heap) and the declared length is checked against max BEFORE a body
// byte is read or a buffer grown, so a malicious prefix cannot OOM the
// reader.
func readFrame(br *bufio.Reader, max int) (*frameBuf, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // a torn header is corruption, not a clean close
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > max {
		return nil, fmt.Errorf("%w: declared %d > cap %d", errFrameTooBig, n, max)
	}
	br.Discard(4)
	f := getFrame()
	if _, err := io.ReadFull(br, f.grow(n)); err != nil {
		putFrame(f)
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // a truncated frame is corruption, not a clean close
		}
		return nil, err
	}
	return f, nil
}

// waiterPool recycles the per-call response channels.  Capacity 4
// lets a chunked opGetFile stream stay a few frames ahead of the
// consumer without stalling the connection's read loop.
var waiterPool = sync.Pool{New: func() any { return make(chan *response, 4) }}

func getWaiter() chan *response { return waiterPool.Get().(chan *response) }

// putWaiter returns a channel to the pool.  Only channels whose final
// response was delivered may be pooled — a channel that was ever
// registered when mux.fail ran has been closed and must be dropped.
func putWaiter(ch chan *response) {
	if len(ch) == 0 {
		waiterPool.Put(ch)
	}
}
