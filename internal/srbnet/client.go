package srbnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilient"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// The client's pool and redial constants.  A Client carries them in
// fields only so in-package tests can shrink one.
const (
	DefaultPoolSize       = 4
	DefaultDialTimeout    = 5 * time.Second
	DefaultRedialAttempts = 3
	DefaultRedialBackoff  = 100 * time.Millisecond
)

// errConnFailed marks errors caused by the transport itself — a failed
// dial, a broken send or receive, a desynced stream — as opposed to
// errors the server returned over a healthy connection.  Only
// transport failures are worth a redial: the session survives on the
// server, so the same request can be reissued over a fresh connection.
// Deliberate client closes are wrapped with storage.ErrClosed instead
// and never redialed.
var errConnFailed = errors.New("srbnet: connection failed")

// Option configures a Client.
type Option func(*Client)

// Client reaches a remote srbnet server.  It implements storage.Backend.
// Sessions share a pool of multiplexed TCP connections: every request
// carries a tag, a writer goroutine per connection encodes frames
// (coalescing queued frames into one writev), and a reader goroutine
// routes responses back to per-tag waiters, so many ranks keep RPCs in
// flight simultaneously.
type Client struct {
	addr     string
	user     string
	secret   string
	resource string
	kind     storage.Kind
	name     string

	poolSize       int
	dialTimeout    time.Duration
	chunkBytes     int
	maxFrame       int
	redialAttempts int
	redialBackoff  time.Duration

	// Cluster routing (WithCluster): broker addresses index-aligned
	// with cluster node IDs, the shard-map size, and the per-address
	// sub-clients Connect fans out to.  Counters are atomics.
	clusterAddrs     []string
	clusterShards    int
	clusterRedirects int64
	clusterFailovers int64
	subMu            sync.Mutex
	subs             map[string]*Client

	pidMu   sync.Mutex
	pids    map[*vtime.Proc]uint64
	nextPID uint64

	mu     sync.Mutex
	conns  []*mux
	closed bool
}

var _ storage.Backend = (*Client)(nil)

// NewClient returns a backend that connects to the named broker resource
// at addr with the given credentials.  kind should mirror the remote
// resource's class so the placement layer treats it correctly.
func NewClient(addr, user, secret, resource string, kind storage.Kind, opts ...Option) *Client {
	c := &Client{
		addr:           addr,
		user:           user,
		secret:         secret,
		resource:       resource,
		kind:           kind,
		name:           "srb://" + addr + "/" + resource,
		poolSize:       DefaultPoolSize,
		dialTimeout:    DefaultDialTimeout,
		chunkBytes:     DefaultChunkBytes,
		maxFrame:       DefaultMaxFrame,
		redialAttempts: DefaultRedialAttempts,
		redialBackoff:  DefaultRedialBackoff,
		pids:           make(map[*vtime.Proc]uint64),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name implements storage.Backend.
func (c *Client) Name() string { return c.name }

// Kind implements storage.Backend.
func (c *Client) Kind() storage.Kind { return c.kind }

// Capacity implements storage.Backend.  The wire protocol does not carry
// capacity queries; remote archives are treated as unlimited, matching
// the paper's assumption for the large remote stores.
func (c *Client) Capacity() (total, used int64) { return 0, 0 }

// pid returns the stable wire id for a client rank, so the server can
// replay its operations on a per-rank clock.
func (c *Client) pid(p *vtime.Proc) uint64 {
	c.pidMu.Lock()
	defer c.pidMu.Unlock()
	id, ok := c.pids[p]
	if !ok {
		c.nextPID++
		id = c.nextPID
		c.pids[p] = id
	}
	return id
}

// dial opens and starts one multiplexed connection, announcing the
// protocol version with the magic preamble.
func (c *Client) dial() (*mux, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("srbnet client: dial %s: %w: %w", c.addr, errConnFailed, err)
	}
	m := &mux{
		c:       c,
		conn:    conn,
		br:      bufio.NewReader(conn),
		sendq:   make(chan *request, 64),
		stop:    make(chan struct{}),
		waiters: make(map[uint64]chan *response),
	}
	if _, err := conn.Write(wireMagic[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("srbnet client: preamble %s: %w: %w", c.addr, errConnFailed, err)
	}
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// pickMux returns a pooled connection for one request: an idle member
// if any, a freshly dialed one while the pool has room, otherwise the
// least-busy member (pipelining on it is the point).
func (c *Client) pickMux() (*mux, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("srbnet client: %w", storage.ErrClosed)
	}
	var best *mux
	bestLoad := -1
	for _, m := range c.conns {
		l := m.load()
		if l < 0 {
			continue // failed, being dropped
		}
		if l == 0 {
			c.mu.Unlock()
			return m, nil
		}
		if bestLoad < 0 || l < bestLoad {
			best, bestLoad = m, l
		}
	}
	room := len(c.conns) < c.poolSize
	c.mu.Unlock()
	if !room {
		if best == nil {
			return nil, fmt.Errorf("srbnet client: %w", storage.ErrClosed)
		}
		return best, nil
	}
	m, err := c.dial()
	if err != nil {
		if best != nil {
			return best, nil // degrade onto a live connection
		}
		return nil, err
	}
	c.mu.Lock()
	if !c.closed && len(c.conns) < c.poolSize {
		c.conns = append(c.conns, m)
		c.mu.Unlock()
		return m, nil
	}
	closed := c.closed
	c.mu.Unlock()
	m.fail(fmt.Errorf("srbnet client: %w", storage.ErrClosed))
	if closed {
		return nil, fmt.Errorf("srbnet client: %w", storage.ErrClosed)
	}
	return c.pickMux() // lost the race to fill the pool; pick again
}

// roundTrip issues one pooled request, redialing around poisoned
// connections.  A transport failure (errConnFailed) drops the dead
// connection from the pool, charges a backoff to the calling rank's
// virtual clock, and reissues the request over a fresh (or surviving)
// connection — sessions are addressed by server-side id, so they ride
// any connection.  Server-returned errors and deliberate closes are
// never redialed.  When the redial budget runs out the last transport
// error is surfaced as a classified permanent failure, so an outer
// resilient wrapper stops retrying too.
//
// A non-nil response is returned even alongside a server error: it
// proves the request frame was fully written, so the caller may
// recycle the pooled request.
func (c *Client) roundTrip(p *vtime.Proc, req *request) (*response, error) {
	po := resilient.Policy{MaxAttempts: c.redialAttempts, BaseDelay: c.redialBackoff}
	for attempt := 1; ; attempt++ {
		m, err := c.pickMux()
		var resp *response
		if err == nil {
			resp, err = m.call(p, req)
			if err == nil {
				return resp, nil
			}
		}
		if !errors.Is(err, errConnFailed) || errors.Is(err, storage.ErrClosed) {
			return resp, err
		}
		if attempt >= c.redialAttempts {
			return nil, resilient.MarkPermanent(fmt.Errorf(
				"srbnet client: redial budget exhausted (%d attempts): %w", c.redialAttempts, err))
		}
		p.Advance(po.Backoff(attempt, c.name+"/redial"))
	}
}

// drop removes a failed connection from the pool.
func (c *Client) drop(m *mux) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.conns {
		if x == m {
			c.conns = append(c.conns[:i], c.conns[i+1:]...)
			return
		}
	}
}

// Close tears down the connection pool.  Sessions cannot be used after
// the client closes.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, m := range conns {
		m.fail(fmt.Errorf("srbnet client: %w", storage.ErrClosed))
	}
	c.closeSubClients()
	return nil
}

// Connect implements storage.Backend.
func (c *Client) Connect(p *vtime.Proc) (storage.Session, error) {
	if len(c.clusterAddrs) > 0 {
		return c.connectCluster(p)
	}
	req := getRequest()
	req.Op = opConnect
	req.PID = c.pid(p)
	req.User, req.Secret, req.Resource = c.user, c.secret, c.resource
	resp, err := c.roundTrip(p, req)
	if resp != nil && atomic.LoadUint32(&req.sent) == 1 {
		putRequest(req)
	}
	if err != nil {
		resp.release()
		return nil, err
	}
	sid := resp.Sess
	resp.release()
	return &clientSession{c: c, sid: sid}, nil
}

// mux is one multiplexed TCP connection.  callers register a per-tag
// waiter, hand the frame to the writer goroutine, and block on the
// waiter until the reader goroutine routes the matching response back.
// Any stream error poisons the whole connection: every outstanding
// waiter is woken with the error and the connection leaves the pool, so
// a desynced or corrupt stream can never serve another request.
type mux struct {
	c    *Client
	conn net.Conn
	br   *bufio.Reader

	sendq chan *request
	stop  chan struct{}

	mu      sync.Mutex
	waiters map[uint64]chan *response
	nextTag uint64
	stopped bool
	err     error
}

// load reports how many requests are outstanding, or -1 once failed.
func (m *mux) load() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return -1
	}
	return len(m.waiters)
}

// fail poisons the connection exactly once: marks it stopped, closes
// the socket, wakes every outstanding waiter and leaves the pool.
func (m *mux) fail(err error) {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.err = err
	ws := m.waiters
	m.waiters = nil
	close(m.stop)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range ws {
		close(ch)
	}
	m.c.drop(m)
}

func (m *mux) failErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return fmt.Errorf("srbnet client: %w", storage.ErrClosed)
}

// writeLoop is the connection's only encoder.  Queued frames are
// encoded into pooled buffers and coalesced into one vectored write
// (net.Buffers → writev), with each frame's bulk Data riding as its
// own iovec so large payloads are never copied into the frame buffer.
func (m *mux) writeLoop() {
	var iov [][]byte
	bufs := new(net.Buffers) // the loop's one writev cursor, re-pointed at iov per batch
	var metas []*frameBuf
	var sent []*request
	for {
		var req *request
		select {
		case req = <-m.sendq:
		case <-m.stop:
			return
		}
		iov, metas, sent = iov[:0], metas[:0], sent[:0]
		for req != nil {
			f := getFrame()
			data := encodeRequest(f, req)
			iov = append(iov, f.b)
			if len(data) > 0 {
				iov = append(iov, data)
			}
			metas = append(metas, f)
			// Snapshot the release decision and publish the sent flag
			// now: once the writev lands, a fast round trip may let the
			// caller recycle its request before this loop runs again.
			stream := req.releaseAfterSend
			atomic.StoreUint32(&req.sent, 1)
			if stream {
				sent = append(sent, req)
			}
			select {
			case req = <-m.sendq:
			default:
				req = nil
			}
		}
		*bufs = iov
		_, err := bufs.WriteTo(m.conn)
		for _, f := range metas {
			putFrame(f)
		}
		for _, r := range sent {
			putRequest(r)
		}
		if err != nil {
			m.fail(fmt.Errorf("srbnet client: send: %w: %w", errConnFailed, err))
			return
		}
	}
}

// readLoop is the connection's only decoder.  A frame error — a
// truncated read, a length prefix over the cap, a corrupt body, an
// unknown tag — means the stream is desynced and poisons the
// connection.  Chunked opGetFile frames keep their waiter registered
// until the flagLast frame arrives.
func (m *mux) readLoop() {
	for {
		f, err := readFrame(m.br, m.c.maxFrame)
		if err != nil {
			m.fail(fmt.Errorf("srbnet client: recv: %w: %w", errConnFailed, err))
			return
		}
		resp := getResponse()
		if err := decodeResponse(f.b, resp); err != nil {
			putFrame(f)
			putResponse(resp)
			m.fail(fmt.Errorf("srbnet client: recv: %w: %w", errConnFailed, err))
			return
		}
		resp.frame = f
		// Snapshot the routing fields before handing resp to the
		// waiter: the receiving caller may consume and release (zero)
		// the response the moment the send completes, so reading
		// resp.Tag afterwards would re-register under tag 0 and
		// orphan the rest of the chunk stream.
		tag := resp.Tag
		more := resp.Flags&flagChunked != 0 && resp.Flags&flagLast == 0
		m.mu.Lock()
		ch, ok := m.waiters[tag]
		if ok {
			// Exclusive ownership while delivering: fail() can only
			// close channels it finds in the map.
			delete(m.waiters, tag)
		}
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			resp.release()
			return
		}
		if !ok {
			resp.release()
			m.fail(fmt.Errorf("srbnet client: recv: stream desync (unknown tag %d): %w", tag, errConnFailed))
			return
		}
		ch <- resp
		if more {
			m.mu.Lock()
			if m.stopped {
				m.mu.Unlock()
				close(ch) // wake the assembling caller; fail() no longer owns this channel
				return
			}
			m.waiters[tag] = ch
			m.mu.Unlock()
		}
	}
}

// call sends one tagged request and blocks for its response, advancing
// p's clock to the server-side completion time.  A chunk-streamed
// opGetFile body is reassembled before returning.
func (m *mux) call(p *vtime.Proc, req *request) (*response, error) {
	m.mu.Lock()
	if m.stopped {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.nextTag++
	req.Tag = m.nextTag
	ch := getWaiter()
	m.waiters[req.Tag] = ch
	m.mu.Unlock()

	req.Now = p.Now()
	select {
	case m.sendq <- req:
	case <-m.stop:
		return nil, m.failErr()
	}
	resp, ok := <-ch
	if !ok {
		return nil, m.failErr()
	}
	if resp.Flags&flagChunked != 0 {
		var err error
		resp, err = m.assemble(ch, resp)
		if err != nil {
			return nil, err
		}
	}
	putWaiter(ch)
	p.AdvanceTo(resp.Now)
	if resp.Err != errNone {
		return resp, decodeRespErr(resp)
	}
	return resp, nil
}

// assemble collects a chunk-streamed opGetFile body into one buffer
// sized from the first frame's declared total.  Out-of-bounds or short
// streams are transport corruption and poison the connection.
func (m *mux) assemble(ch chan *response, first *response) (*response, error) {
	size := first.Size
	if first.Err == errNone && (size < 0 || first.Off != 0) {
		first.release()
		m.fail(fmt.Errorf("srbnet client: recv: bad chunk stream header: %w", errConnFailed))
		return nil, m.failErr()
	}
	var out []byte
	if first.Err == errNone {
		out = make([]byte, size)
	}
	var got int64
	resp := first
	for {
		if resp.Err != errNone {
			// Terminal error frame: surface it like a plain response.
			resp.Data = nil
			return resp, nil
		}
		if resp.Off < 0 || resp.Off+int64(len(resp.Data)) > size {
			resp.release()
			m.fail(fmt.Errorf("srbnet client: recv: chunk out of bounds: %w", errConnFailed))
			return nil, m.failErr()
		}
		copy(out[resp.Off:], resp.Data)
		got += int64(len(resp.Data))
		if resp.Flags&flagLast != 0 {
			break
		}
		resp.release()
		var ok bool
		resp, ok = <-ch
		if !ok {
			return nil, m.failErr()
		}
	}
	if got != size {
		resp.release()
		m.fail(fmt.Errorf("srbnet client: recv: chunk stream short (%d of %d bytes): %w", got, size, errConnFailed))
		return nil, m.failErr()
	}
	// Hand the assembled body off as a heap-owned buffer: drop the
	// final frame's backing so ownData returns it without a copy.
	putFrame(resp.frame)
	resp.frame = nil
	resp.Data = out
	resp.Size = size
	return resp, nil
}

// streamPut sends one chunk-streamed opPutFile: an opening frame
// carrying the first chunk and the declared total, then opChunk frames
// slicing the caller's buffer directly onto the writev (zero-copy),
// the last one flagged.  One response acknowledges the whole stream.
func (m *mux) streamPut(p *vtime.Proc, sess, pid uint64, name string, mode storage.AMode, data []byte, chunk int) (*response, error) {
	m.mu.Lock()
	if m.stopped {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.nextTag++
	tag := m.nextTag
	ch := getWaiter()
	m.waiters[tag] = ch
	m.mu.Unlock()

	first := getRequest()
	first.Op, first.Flags, first.Tag = opPutFile, flagChunked, tag
	first.Sess, first.PID = sess, pid
	first.Now = p.Now()
	first.Path, first.Mode = name, mode
	first.N = len(data)
	first.Data = data[:chunk]
	first.releaseAfterSend = true
	select {
	case m.sendq <- first:
	case <-m.stop:
		return nil, m.failErr()
	}
	for off := chunk; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		cr := getRequest()
		cr.Op, cr.Tag, cr.Sess, cr.PID = opChunk, tag, sess, pid
		cr.Flags = flagChunked
		if end == len(data) {
			cr.Flags |= flagLast
		}
		cr.Off = int64(off)
		cr.Data = data[off:end]
		cr.releaseAfterSend = true
		select {
		case m.sendq <- cr:
		case <-m.stop:
			putRequest(cr) // never enqueued
			return nil, m.failErr()
		}
	}
	resp, ok := <-ch
	if !ok {
		return nil, m.failErr()
	}
	putWaiter(ch)
	p.AdvanceTo(resp.Now)
	if resp.Err != errNone {
		return resp, decodeRespErr(resp)
	}
	return resp, nil
}

// clientSession is one wire session.  It is addressed by a server-side
// id, so its requests travel over whichever pooled connection is least
// busy.
type clientSession struct {
	c   *Client
	sid uint64

	mu     sync.Mutex
	closed bool
}

var _ storage.WholeFiler = (*clientSession)(nil)

// call routes one request for this session, stamping the session id and
// the calling rank's wire pid.  On any path that produced a response —
// success or server-side error — the pooled request is recycled (the
// response proves the frame was fully written); on transport failure
// it is left to the GC, since a dead connection's writer may still
// reference it.  The caller owns the returned response and must
// release() it after copying what it needs.
func (s *clientSession) call(p *vtime.Proc, req *request) (*response, error) {
	if req.Op != opCloseSession {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			putRequest(req) // never enqueued
			return nil, fmt.Errorf("srbnet client: %w", storage.ErrClosed)
		}
	}
	req.Sess = s.sid
	req.PID = s.c.pid(p)
	resp, err := s.c.roundTrip(p, req)
	if resp != nil && atomic.LoadUint32(&req.sent) == 1 {
		putRequest(req)
	}
	if err != nil {
		resp.release()
		return nil, err
	}
	return resp, nil
}

// Open implements storage.Session.
func (s *clientSession) Open(p *vtime.Proc, name string, mode storage.AMode) (storage.Handle, error) {
	req := getRequest()
	req.Op, req.Path, req.Mode = opOpen, name, mode
	resp, err := s.call(p, req)
	if err != nil {
		return nil, err
	}
	h := &clientHandle{s: s, id: resp.Handle, path: name, size: resp.Size}
	resp.release()
	return h, nil
}

// Remove implements storage.Session.
func (s *clientSession) Remove(p *vtime.Proc, name string) error {
	req := getRequest()
	req.Op, req.Path = opRemove, name
	resp, err := s.call(p, req)
	if err != nil {
		return err
	}
	resp.release()
	return nil
}

// Stat implements storage.Session.
func (s *clientSession) Stat(p *vtime.Proc, name string) (storage.FileInfo, error) {
	req := getRequest()
	req.Op, req.Path = opStat, name
	resp, err := s.call(p, req)
	if err != nil {
		return storage.FileInfo{}, err
	}
	fi := resp.Info
	resp.release()
	return fi, nil
}

// List implements storage.Session.
func (s *clientSession) List(p *vtime.Proc, prefix string) ([]storage.FileInfo, error) {
	req := getRequest()
	req.Op, req.Path = opList, prefix
	resp, err := s.call(p, req)
	if err != nil {
		return nil, err
	}
	// Copy out: resp.Infos' backing array returns to the pool.
	var infos []storage.FileInfo
	if len(resp.Infos) > 0 {
		infos = append(infos, resp.Infos...)
	}
	resp.release()
	return infos, nil
}

// PutFile implements storage.WholeFiler: one round trip for
// open + write + close.  A body larger than the chunk threshold is
// streamed as bounded chunk frames instead of one whole-file message.
func (s *clientSession) PutFile(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	if len(data) > s.c.chunkBytes {
		return s.putStream(p, name, mode, data)
	}
	req := getRequest()
	req.Op, req.Path, req.Mode = opPutFile, name, mode
	req.Data, req.N = data, len(data)
	resp, err := s.call(p, req)
	if err != nil {
		return err
	}
	resp.release()
	return nil
}

// putStream drives one chunked PutFile through the pool with the same
// redial discipline as roundTrip.
func (s *clientSession) putStream(p *vtime.Proc, name string, mode storage.AMode, data []byte) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("srbnet client: %w", storage.ErrClosed)
	}
	c := s.c
	po := resilient.Policy{MaxAttempts: c.redialAttempts, BaseDelay: c.redialBackoff}
	for attempt := 1; ; attempt++ {
		m, err := c.pickMux()
		var resp *response
		if err == nil {
			resp, err = m.streamPut(p, s.sid, c.pid(p), name, mode, data, c.chunkBytes)
		}
		if err == nil {
			resp.release()
			return nil
		}
		if !errors.Is(err, errConnFailed) || errors.Is(err, storage.ErrClosed) {
			resp.release()
			return err
		}
		if attempt >= c.redialAttempts {
			return resilient.MarkPermanent(fmt.Errorf(
				"srbnet client: redial budget exhausted (%d attempts): %w", c.redialAttempts, err))
		}
		p.Advance(po.Backoff(attempt, c.name+"/redial"))
	}
}

// GetFile implements storage.WholeFiler: one round trip for
// open + read + close.  The server streams large bodies in bounded
// chunks; mux.call reassembles them, so the only whole-file buffer on
// the client is the one returned to the caller.
func (s *clientSession) GetFile(p *vtime.Proc, name string) ([]byte, error) {
	req := getRequest()
	req.Op, req.Path = opGetFile, name
	resp, err := s.call(p, req)
	if err != nil {
		return nil, err
	}
	data := resp.ownData()
	resp.release()
	return data, nil
}

// Close implements storage.Session.  The pooled connections stay warm
// for other sessions.
func (s *clientSession) Close(p *vtime.Proc) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("srbnet client: %w", storage.ErrClosed)
	}
	s.closed = true
	s.mu.Unlock()
	req := getRequest()
	req.Op = opCloseSession
	resp, err := s.call(p, req)
	resp.release()
	return err
}

// clientHandle is one remote file handle.
type clientHandle struct {
	s    *clientSession
	id   uint64
	path string

	mu   sync.Mutex
	size int64
}

var (
	_ storage.Handle       = (*clientHandle)(nil)
	_ storage.VectorHandle = (*clientHandle)(nil)
)

func (h *clientHandle) Path() string { return h.path }

// Size returns the last size observed from the server.
func (h *clientHandle) Size() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

func (h *clientHandle) setSize(n int64) {
	h.mu.Lock()
	h.size = n
	h.mu.Unlock()
}

// ReadAt implements storage.Handle.
func (h *clientHandle) ReadAt(p *vtime.Proc, b []byte, off int64) (int, error) {
	req := getRequest()
	req.Op, req.Handle, req.Off, req.N = opRead, h.id, off, len(b)
	resp, err := h.s.call(p, req)
	if err != nil {
		return 0, err
	}
	h.setSize(resp.Size)
	n := copy(b, resp.Data)
	resp.release()
	if n < len(b) {
		return n, fmt.Errorf("srbnet client: short read of %q at %d: n=%d", h.path, off, n)
	}
	return n, nil
}

// WriteAt implements storage.Handle.
func (h *clientHandle) WriteAt(p *vtime.Proc, b []byte, off int64) (int, error) {
	req := getRequest()
	req.Op, req.Handle, req.Off, req.Data = opWrite, h.id, off, b
	resp, err := h.s.call(p, req)
	if err != nil {
		return 0, err
	}
	h.setSize(resp.Size)
	n := resp.N
	resp.release()
	return n, nil
}

// ReadAtV implements storage.VectorHandle: all chunks travel in one
// round trip; the server still executes one native call per chunk, so
// the virtual cost is identical to a loop of ReadAt.
func (h *clientHandle) ReadAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	req := getRequest()
	req.Op, req.Handle = opReadV, h.id
	wv := req.Vecs[:0]
	for _, v := range vecs {
		wv = append(wv, wireVec{Off: v.Off, N: len(v.B)})
	}
	req.Vecs = wv
	resp, err := h.s.call(p, req)
	if err != nil {
		return 0, err
	}
	h.setSize(resp.Size)
	if len(resp.Vecs) != len(vecs) {
		n := len(resp.Vecs)
		resp.release()
		return 0, fmt.Errorf("srbnet client: vectored read of %q: %d chunks for %d requested", h.path, n, len(vecs))
	}
	var total int64
	for i, d := range resp.Vecs {
		n := copy(vecs[i].B, d)
		total += int64(n)
		if n < len(vecs[i].B) {
			off := vecs[i].Off
			resp.release()
			return total, fmt.Errorf("srbnet client: short read of %q at %d: n=%d", h.path, off, n)
		}
	}
	resp.release()
	return total, nil
}

// WriteAtV implements storage.VectorHandle.
func (h *clientHandle) WriteAtV(p *vtime.Proc, vecs []storage.Vec) (int64, error) {
	req := getRequest()
	req.Op, req.Handle = opWriteV, h.id
	wv := req.Vecs[:0]
	for _, v := range vecs {
		wv = append(wv, wireVec{Off: v.Off, Data: v.B})
	}
	req.Vecs = wv
	resp, err := h.s.call(p, req)
	if err != nil {
		return 0, err
	}
	h.setSize(resp.Size)
	n := int64(resp.N)
	resp.release()
	return n, nil
}

// Close implements storage.Handle.
func (h *clientHandle) Close(p *vtime.Proc) error {
	req := getRequest()
	req.Op, req.Handle = opCloseHandle, h.id
	resp, err := h.s.call(p, req)
	if err != nil {
		return err
	}
	resp.release()
	return nil
}
