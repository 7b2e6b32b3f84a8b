package srbnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/qos"
	"repro/internal/resilient"
	"repro/internal/srb"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// Server exposes an srb.Broker over TCP.  Connections are pure frame
// carriers: requests on one connection are handled concurrently, each
// response is routed back by its tag, and sessions live in a
// server-wide registry addressed by wire id, so any pooled connection
// can carry any session's traffic.
//
// Every connection must open with the 4-byte magic preamble — the
// protocol-version check — and is then served by the one binary
// framing loop (pooled buffers, writev-coalesced responses,
// chunk-streamed bodies).  A connection that opens with anything else
// is closed without a reply.
type Server struct {
	broker *srb.Broker
	sim    *vtime.Sim
	lis    net.Listener
	logf   func(format string, args ...any)
	sched  *qos.Scheduler
	router ShardRouter

	chunkBytes int // DefaultChunkBytes; a field so in-package tests can stream test-sized files

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	sessMu   sync.Mutex
	sessions map[uint64]*srvSession
	nextSess uint64
}

// ServerOption configures Serve.
type ServerOption func(*Server)

// WithScheduler routes every data-plane opcode (open, read, write,
// vectored and whole-file transfers) through the given qos scheduler:
// admission control may shed the request with ErrOverload (the
// honor-after hint crosses the wire), and granted requests run in the
// scheduler's order, so device time is charged fairly across tenants.
// Control-plane opcodes (connect, close, stat, list, remove) bypass
// the queue.  Without this option the server keeps its greedy
// arrival-order behaviour — the ablation baseline.
//
// The scheduler is not owned by the server: close it (qos.Scheduler
// Close fails queued requests) before waiting on Server.Close if
// requests may still be queued, and share it across servers freely.
func WithScheduler(sched *qos.Scheduler) ServerOption {
	return func(s *Server) { s.sched = sched }
}

// ShardRouter decides whether this broker owns a path's namespace
// shard.  Route returns ok=true when the path is local; otherwise it
// returns the owning broker's address, which the server sends back as
// an errWrongShard redirect.  now is the requesting rank's virtual
// clock, so a routing miss observed after a leader death can drive the
// cluster's lease-lapse failover.  cluster.Node implements this.
type ShardRouter interface {
	Route(now time.Duration, path string) (addr string, ok bool)
}

// WithShardRouter attaches cluster shard routing: every path-addressed
// opcode (open, stat, list, remove, whole-file transfers) is checked
// against the router before admission, and foreign paths are refused
// with a redirect naming the owner.  Handle-addressed I/O is not
// checked — a handle lives on the broker that opened it.
func WithShardRouter(r ShardRouter) ServerOption {
	return func(s *Server) { s.router = r }
}

// Serve starts a server on addr ("127.0.0.1:0" picks a free port) using
// the given Sim for server-side clocks.  It returns once the listener is
// ready; Close stops it.
func Serve(addr string, broker *srb.Broker, sim *vtime.Sim, opts ...ServerOption) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("srbnet: listen %s: %w", addr, err)
	}
	s := &Server{
		broker:     broker,
		sim:        sim,
		lis:        lis,
		logf:       log.Printf,
		chunkBytes: DefaultChunkBytes,
		conns:      make(map[net.Conn]struct{}),
		sessions:   make(map[uint64]*srvSession),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// SetLogf replaces the server's log function (tests silence it).
func (s *Server) SetLogf(f func(format string, args ...any)) { s.logf = f }

// Close stops the listener and all connections, then waits for the
// per-connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// srvSession is one broker session in the server-wide registry.  Each
// client rank (wire PID) gets its own server-side Proc, mirroring the
// in-process arrangement where every rank carries its own clock — this
// keeps per-process device state (seek locality) faithful even when
// many ranks share one wire session.
type srvSession struct {
	id uint64

	// user, resource and class identify the tenant and target for the
	// qos scheduler; set once at connect, immutable afterwards.
	user     string
	resource string
	class    string

	mu      sync.Mutex
	sess    storage.Session
	handles map[uint64]storage.Handle
	nextH   uint64
	procs   map[uint64]*vtime.Proc
	closed  bool
}

// proc returns the session's clock for the given rank, creating it on
// first use.
func (ss *srvSession) proc(sim *vtime.Sim, pid uint64) *vtime.Proc {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	p := ss.procs[pid]
	if p == nil {
		p = sim.NewProc(fmt.Sprintf("srbnet/s%d/p%d", ss.id, pid))
		ss.procs[pid] = p
	}
	return p
}

func (ss *srvSession) handle(id uint64) (storage.Handle, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, false
	}
	h, ok := ss.handles[id]
	return h, ok
}

// connWriter gives handlers on one connection access to its response
// queue, so a chunk-streamed opGetFile can push data frames ahead of
// its final response.
type connWriter struct {
	respq chan *response
}

// serveConn owns one TCP connection: it checks the protocol-version
// preamble and enters the serve loop, or closes the connection without
// writing a byte.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReader(conn)
	magic, err := br.Peek(len(wireMagic))
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.logf("srbnet: preamble from %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if !bytes.Equal(magic, wireMagic[:]) {
		s.logf("srbnet: unsupported wire preamble from %s: % x", conn.RemoteAddr(), magic)
		return
	}
	br.Discard(len(wireMagic))
	s.serve(conn, br)
}

// serve runs one connection past its preamble until the peer hangs up
// or the stream fails.  The decode loop reads pooled frames and
// hands each request to a handler goroutine — a parked one if there
// is one, a new one otherwise, so no request waits for another; opChunk
// continuation frames are routed to their stream's channel instead
// (owned by the streamed-put handler).  Any frame error — a truncated
// read, a length over the cap, a corrupt body, a chunk for an unknown
// stream, a stream head reusing a live tag — poisons the whole
// connection.
func (s *Server) serve(conn net.Conn, br *bufio.Reader) {
	respq := make(chan *response, 64)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		s.writeLoop(conn, respq)
	}()

	wc := &connWriter{respq: respq}
	var hwg sync.WaitGroup
	// Handlers park on work between requests.  A request goes to a
	// parked handler if there is one and to a new goroutine otherwise,
	// so requests on one connection run as concurrently as they did with
	// a goroutine each (a tape-blocked one never delays the next frame)
	// and the steady state spawns — and allocates — nothing.
	work := make(chan *request)
	handler := func(req *request) {
		defer hwg.Done()
		for ok := true; ok; req, ok = <-work {
			respq <- s.handle(req, wc)
			req.release()
		}
	}
	streams := make(map[uint64]chan *request)
	for {
		f, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("srbnet: read frame from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		req := getRequest()
		if err := decodeRequest(f.b, req); err != nil {
			putFrame(f)
			putRequest(req)
			s.logf("srbnet: corrupt frame from %s: %v", conn.RemoteAddr(), err)
			break
		}
		req.frame = f
		if req.Op == opChunk {
			// Snapshot routing fields before the send: the streaming
			// handler may consume and release (zero) the request the
			// moment it lands on the channel.
			tag := req.Tag
			last := req.Flags&flagLast != 0
			st, ok := streams[tag]
			if !ok {
				s.logf("srbnet: chunk for unknown stream from %s (tag %d)", conn.RemoteAddr(), tag)
				req.release()
				break
			}
			st <- req // ownership moves to the streaming handler
			if last {
				delete(streams, tag)
			}
			continue
		}
		if req.Op == opPutFile && req.Flags&flagChunked != 0 {
			// A second head on a live tag would orphan the first
			// handler's channel: never fed, never closed at teardown.
			if _, dup := streams[req.Tag]; dup {
				s.logf("srbnet: duplicate stream tag from %s (tag %d)", conn.RemoteAddr(), req.Tag)
				req.release()
				break
			}
			st := make(chan *request, 4)
			req.stream = st
			streams[req.Tag] = st
		}
		select {
		case work <- req:
		default:
			hwg.Add(1)
			go handler(req)
		}
	}
	conn.Close()
	close(work)
	// Unblock any streaming handler still waiting on chunk frames: a
	// closed stream reads as errStreamSevered.
	for _, st := range streams {
		close(st)
	}
	hwg.Wait()
	close(respq)
	wwg.Wait()
}

// writeLoop is the connection's only encoder.  Queued responses
// are encoded into pooled frame buffers and coalesced into one
// vectored write (net.Buffers → writev), with each response's bulk
// Data riding as its own iovec.  Frames, data buffers and response
// structs all return to their pools once the writev lands.
func (s *Server) writeLoop(conn net.Conn, respq chan *response) {
	var iov [][]byte
	bufs := new(net.Buffers) // the loop's one writev cursor, re-pointed at iov per batch
	var metas []*frameBuf
	var done []*response
	broken := false
	for resp := range respq {
		if broken {
			resp.release() // drain so handlers never block
			continue
		}
		iov, metas, done = iov[:0], metas[:0], done[:0]
		for resp != nil {
			f := getFrame()
			data := encodeResponse(f, resp)
			iov = append(iov, f.b)
			if len(data) > 0 {
				iov = append(iov, data)
			}
			metas = append(metas, f)
			done = append(done, resp)
			select {
			case r, ok := <-respq:
				if !ok {
					resp = nil
				} else {
					resp = r
				}
			default:
				resp = nil
			}
		}
		*bufs = iov
		_, err := bufs.WriteTo(conn)
		for _, f := range metas {
			putFrame(f)
		}
		for _, r := range done {
			r.release()
		}
		if err != nil {
			s.logf("srbnet: write to %s: %v", conn.RemoteAddr(), err)
			broken = true
			conn.Close()
		}
	}
}

// drainStream consumes chunk frames up to the stream's final frame (or
// the connection's death), so a shed or failed streamed put never
// wedges the connection's decode loop behind a full stream buffer.
func drainStream(st chan *request) {
	if st == nil {
		return
	}
	for creq := range st {
		last := creq.Flags&flagLast != 0
		creq.release()
		if last {
			return
		}
	}
}

// lookup finds the addressed session, or nil if it was never created or
// is already closed.
func (s *Server) lookup(id uint64) *srvSession {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.sessions[id]
}

// handle executes one request.  The serving rank's clock is first
// pushed forward to the client's clock so device contention is charged
// at the right instant.  With a scheduler attached, data-plane opcodes
// first pass admission control and then wait for their grant, so the
// device acquisitions inside execute happen in scheduler order.  The
// response struct and its data buffers come from the pools; the
// connection writer releases them after the writev.
func (s *Server) handle(req *request, wc *connWriter) *response {
	resp := getResponse()
	resp.Tag = req.Tag
	if req.Op == opConnect {
		return s.handleConnect(req, resp)
	}
	ss := s.lookup(req.Sess)
	if ss == nil {
		drainStream(req.stream)
		req.stream = nil
		resp.Err, resp.ErrMsg = encodeErr(fmt.Errorf("srbnet: no session %d: %w", req.Sess, storage.ErrClosed))
		resp.Now = req.Now
		return resp
	}
	proc := ss.proc(s.sim, req.PID)
	proc.AdvanceTo(req.Now)
	if s.router != nil && pathRouted(req.Op) {
		if addr, ok := s.router.Route(proc.Now(), req.Path); !ok {
			// A redirected streamed put still has chunk frames
			// inbound; consume them so the connection stays framed.
			drainStream(req.stream)
			req.stream = nil
			resp.Err, resp.ErrMsg = encodeErr(&WrongShardError{Addr: addr})
			resp.Now = proc.Now()
			return resp
		}
	}
	if s.sched != nil {
		if q, ok := schedRequest(ss, req); ok {
			var out *response
			err := s.sched.Do(proc, q, func() error {
				out = s.execute(ss, proc, req, resp, wc)
				return nil
			})
			if err != nil {
				// The body never ran (shed or scheduler shutdown): a
				// streamed put's chunk frames are still inbound and
				// must be consumed on the handler's behalf.
				drainStream(req.stream)
				req.stream = nil
				resp.Err, resp.ErrMsg = encodeErr(err)
				if after, ok := resilient.RetryAfterOf(err); ok {
					resp.RetryAfterNs = int64(after)
				}
				resp.Now = proc.Now()
				return resp
			}
			return out
		}
	}
	return s.execute(ss, proc, req, resp, wc)
}

// pathRouted reports whether an opcode addresses the namespace by
// path and is therefore subject to shard routing.
func pathRouted(op opCode) bool {
	switch op {
	case opOpen, opStat, opList, opRemove, opPutFile, opGetFile:
		return true
	}
	return false
}

// schedRequest maps a wire request onto a qos.Request.  Only the
// data-plane opcodes are schedulable; session lifecycle and metadata
// ops return ok == false and run unqueued.
func schedRequest(ss *srvSession, req *request) (qos.Request, bool) {
	q := qos.Request{
		Tenant:  ss.user,
		Backend: ss.resource,
		Class:   ss.class,
		Path:    req.Path,
	}
	handlePath := func() {
		if h, ok := ss.handle(req.Handle); ok {
			q.Path = h.Path()
		}
	}
	switch req.Op {
	case opOpen:
		if req.Mode == storage.ModeRead {
			q.Op = "read"
		} else {
			q.Op = "write"
		}
	case opRead:
		q.Op, q.Bytes = "read", int64(req.N)
		handlePath()
	case opReadV:
		q.Op = "read"
		for _, v := range req.Vecs {
			q.Bytes += int64(v.N)
		}
		handlePath()
	case opWrite:
		q.Op, q.Bytes = "write", int64(len(req.Data))
		handlePath()
	case opWriteV:
		q.Op = "write"
		for _, v := range req.Vecs {
			q.Bytes += int64(len(v.Data))
		}
		handlePath()
	case opGetFile:
		q.Op = "read" // size unknown until opened
	case opPutFile:
		// A chunked put carries only the first chunk in this frame;
		// req.N declares the whole body, so admission prices the full
		// transfer.
		q.Op, q.Bytes = "write", int64(len(req.Data))
		if int64(req.N) > q.Bytes {
			q.Bytes = int64(req.N)
		}
	default:
		return qos.Request{}, false
	}
	return q, true
}

// execute runs one already-admitted request against the session.
func (s *Server) execute(ss *srvSession, proc *vtime.Proc, req *request, resp *response, wc *connWriter) *response {
	fail := func(err error) *response {
		resp.Err, resp.ErrMsg = encodeErr(err)
		resp.Now = proc.Now()
		return resp
	}

	switch req.Op {
	case opCloseSession:
		ss.mu.Lock()
		if ss.closed {
			ss.mu.Unlock()
			return fail(storage.ErrClosed)
		}
		ss.closed = true
		ss.mu.Unlock()
		s.sessMu.Lock()
		delete(s.sessions, ss.id)
		s.sessMu.Unlock()
		if err := ss.sess.Close(proc); err != nil {
			return fail(err)
		}
	case opOpen:
		h, err := ss.sess.Open(proc, req.Path, req.Mode)
		if err != nil {
			return fail(err)
		}
		ss.mu.Lock()
		ss.nextH++
		id := ss.nextH
		ss.handles[id] = h
		ss.mu.Unlock()
		resp.Handle = id
		resp.Size = h.Size()
	case opRead:
		h, ok := ss.handle(req.Handle)
		if !ok {
			return fail(storage.ErrClosed)
		}
		if req.N < 0 || req.N > DefaultMaxFrame {
			return fail(fmt.Errorf("srbnet: read of %d bytes exceeds frame cap %d", req.N, DefaultMaxFrame))
		}
		resp.dbuf = getFrame()
		buf := resp.dbuf.grow(req.N)
		n, err := h.ReadAt(proc, buf, req.Off)
		resp.N = n
		resp.Data = buf[:n]
		resp.Size = h.Size()
		if err != nil && !errors.Is(err, io.EOF) {
			return fail(err)
		}
		// EOF is signalled in-band: N < requested with no error code.
	case opWrite:
		h, ok := ss.handle(req.Handle)
		if !ok {
			return fail(storage.ErrClosed)
		}
		n, err := h.WriteAt(proc, req.Data, req.Off)
		resp.N = n
		resp.Size = h.Size()
		if err != nil {
			return fail(err)
		}
	case opReadV:
		h, ok := ss.handle(req.Handle)
		if !ok {
			return fail(storage.ErrClosed)
		}
		total := 0
		for _, v := range req.Vecs {
			if v.N < 0 {
				return fail(fmt.Errorf("srbnet: negative vectored read length"))
			}
			total += v.N
		}
		if total > DefaultMaxFrame {
			return fail(fmt.Errorf("srbnet: vectored read of %d bytes exceeds frame cap %d", total, DefaultMaxFrame))
		}
		resp.dbuf = getFrame()
		base := resp.dbuf.grow(total)
		used := 0
		vecs := resp.Vecs[:0]
		for _, v := range req.Vecs {
			buf := base[used : used+v.N]
			used += v.N
			n, err := h.ReadAt(proc, buf, v.Off)
			vecs = append(vecs, buf[:n])
			resp.N += n
			if err != nil && !errors.Is(err, io.EOF) {
				resp.Vecs = vecs
				return fail(err)
			}
		}
		resp.Vecs = vecs
		resp.Size = h.Size()
	case opWriteV:
		h, ok := ss.handle(req.Handle)
		if !ok {
			return fail(storage.ErrClosed)
		}
		for _, v := range req.Vecs {
			n, err := h.WriteAt(proc, v.Data, v.Off)
			resp.N += n
			if err != nil {
				return fail(err)
			}
		}
		resp.Size = h.Size()
	case opPutFile:
		if req.stream != nil {
			return s.executePutStream(ss, proc, req, resp)
		}
		h, err := ss.sess.Open(proc, req.Path, req.Mode)
		if err != nil {
			return fail(err)
		}
		if _, err := h.WriteAt(proc, req.Data, 0); err != nil {
			h.Close(proc)
			return fail(err)
		}
		resp.Size = h.Size()
		if err := h.Close(proc); err != nil {
			return fail(err)
		}
	case opGetFile:
		h, err := ss.sess.Open(proc, req.Path, storage.ModeRead)
		if err != nil {
			return fail(err)
		}
		size := h.Size()
		if size > int64(s.chunkBytes) {
			return s.streamGetFile(proc, req, resp, h, size, wc)
		}
		if size > int64(DefaultMaxFrame) {
			h.Close(proc)
			return fail(fmt.Errorf("srbnet: file %q (%d bytes) exceeds frame cap %d", req.Path, size, DefaultMaxFrame))
		}
		resp.dbuf = getFrame()
		buf := resp.dbuf.grow(int(size))
		n, err := h.ReadAt(proc, buf, 0)
		if err != nil && !errors.Is(err, io.EOF) {
			h.Close(proc)
			return fail(err)
		}
		resp.Data = buf[:n]
		resp.Size = h.Size()
		if err := h.Close(proc); err != nil {
			return fail(err)
		}
	case opStat:
		fi, err := ss.sess.Stat(proc, req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Info = fi
	case opList:
		fis, err := ss.sess.List(proc, req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Infos = fis
	case opRemove:
		if err := ss.sess.Remove(proc, req.Path); err != nil {
			return fail(err)
		}
	case opCloseHandle:
		ss.mu.Lock()
		h, ok := ss.handles[req.Handle]
		delete(ss.handles, req.Handle)
		ss.mu.Unlock()
		if !ok {
			return fail(storage.ErrClosed)
		}
		if err := h.Close(proc); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("srbnet: unknown op %d", req.Op))
	}
	resp.Now = proc.Now()
	return resp
}

// executePutStream runs one chunk-streamed opPutFile: the head frame
// carries the first chunk and the declared total, the rest arrive on
// req.stream as opChunk frames.  Each chunk is written at its declared
// offset and released immediately, so peak memory is one chunk — never
// the whole file.  Every exit path drains the stream to its final
// frame so the connection's decode loop cannot wedge.
func (s *Server) executePutStream(ss *srvSession, proc *vtime.Proc, req *request, resp *response) *response {
	finish := func(err error) *response {
		drainStream(req.stream)
		req.stream = nil
		if err != nil {
			resp.Err, resp.ErrMsg = encodeErr(err)
		}
		resp.Now = proc.Now()
		return resp
	}
	h, err := ss.sess.Open(proc, req.Path, req.Mode)
	if err != nil {
		return finish(err)
	}
	if _, err := h.WriteAt(proc, req.Data, 0); err != nil {
		h.Close(proc)
		return finish(err)
	}
	done := req.Flags&flagLast != 0
	for !done {
		creq, ok := <-req.stream
		if !ok {
			req.stream = nil // connection died; nothing left to drain
			h.Close(proc)
			return finish(errStreamSevered)
		}
		done = creq.Flags&flagLast != 0
		_, werr := h.WriteAt(proc, creq.Data, creq.Off)
		creq.release()
		if werr != nil {
			h.Close(proc)
			return finish(werr)
		}
	}
	req.stream = nil // fully consumed
	resp.Size = h.Size()
	if err := h.Close(proc); err != nil {
		return finish(err)
	}
	return finish(nil)
}

// streamGetFile sends a large opGetFile body as bounded chunk frames:
// each carries Data at Off plus the total Size (the first one sizes
// the client's assembly buffer), and a final empty flagLast frame
// carries the completion time.  Chunk buffers come from the frame pool
// and are released by the connection writer after each writev, so peak
// server memory is a few chunks regardless of file size.
func (s *Server) streamGetFile(proc *vtime.Proc, req *request, resp *response, h storage.Handle, size int64, wc *connWriter) *response {
	failLast := func(err error) *response {
		resp.Err, resp.ErrMsg = encodeErr(err)
		resp.Flags = flagChunked | flagLast
		resp.Now = proc.Now()
		return resp
	}
	chunk := int64(s.chunkBytes)
	for off := int64(0); off < size; off += chunk {
		n := chunk
		if size-off < n {
			n = size - off
		}
		db := getFrame()
		buf := db.grow(int(n))
		rn, err := h.ReadAt(proc, buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			putFrame(db)
			h.Close(proc)
			return failLast(err)
		}
		if int64(rn) < n {
			putFrame(db)
			h.Close(proc)
			return failLast(fmt.Errorf("srbnet: short read streaming %q at %d", req.Path, off))
		}
		cf := getResponse()
		cf.Tag = req.Tag
		cf.Flags = flagChunked
		cf.Off = off
		cf.Size = size
		cf.Data = buf[:rn]
		cf.dbuf = db
		cf.Now = proc.Now()
		wc.respq <- cf
	}
	if err := h.Close(proc); err != nil {
		return failLast(err)
	}
	resp.Flags = flagChunked | flagLast
	resp.Size = size
	resp.Now = proc.Now()
	return resp
}

// handleConnect reserves a session id, authenticates against the broker
// on the connecting rank's new clock, and publishes the session in the
// registry.
func (s *Server) handleConnect(req *request, resp *response) *response {
	s.sessMu.Lock()
	s.nextSess++
	id := s.nextSess
	s.sessMu.Unlock()
	proc := s.sim.NewProc(fmt.Sprintf("srbnet/s%d/p%d", id, req.PID))
	proc.AdvanceTo(req.Now)
	sess, err := s.broker.Connect(proc, req.User, req.Secret, req.Resource)
	if err != nil {
		resp.Err, resp.ErrMsg = encodeErr(err)
		resp.Now = proc.Now()
		return resp
	}
	ss := &srvSession{
		id:       id,
		user:     req.User,
		resource: req.Resource,
		sess:     sess,
		handles:  make(map[uint64]storage.Handle),
		procs:    map[uint64]*vtime.Proc{req.PID: proc},
	}
	if be, ok := s.broker.Resource(req.Resource); ok {
		ss.class = be.Kind().String()
	}
	s.sessMu.Lock()
	s.sessions[id] = ss
	s.sessMu.Unlock()
	resp.Sess = id
	resp.Now = proc.Now()
	return resp
}
