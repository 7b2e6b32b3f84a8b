package srbnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/remotedisk"
	"repro/internal/srb"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// newChunkedServer is newServerOpts with a tiny streaming threshold on
// both sides, so whole-file transfers exercise the chunk protocol at
// test-sized payloads.
func newChunkedServer(t *testing.T, sim *vtime.Sim, chunk int, opts ...Option) (*Server, *Client) {
	t.Helper()
	broker := srb.NewBroker()
	be, err := remotedisk.New("sdsc-disk", memfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Register(be); err != nil {
		t.Fatal(err)
	}
	broker.AddUser("shen", "nwu")
	srv, err := Serve("127.0.0.1:0", broker, sim, func(s *Server) { s.chunkBytes = chunk })
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})
	t.Cleanup(func() { srv.Close() })
	opts = append([]Option{func(c *Client) { c.chunkBytes = chunk }}, opts...)
	c := NewClient(srv.Addr(), "shen", "nwu", "sdsc-disk", storage.KindRemoteDisk, opts...)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestRequestFrameRoundTrip pins the v3 request layout: every field
// must survive encode → decode, with the bulk Data payload riding after
// the metadata sections (it is returned by encodeRequest for the
// writev rather than copied into the frame).
func TestRequestFrameRoundTrip(t *testing.T) {
	in := getRequest()
	in.Op, in.Flags, in.Tag = opReadV, flagChunked|flagLast, uint64(1)<<40
	in.Sess, in.PID = 9, 8
	in.Now = 12345 * time.Microsecond
	in.User, in.Secret, in.Resource = "shen", "nwu", "sdsc-disk"
	in.Path, in.Mode = "wire/file", storage.ModeCreate
	in.Handle, in.Off, in.N = 77, -1, 1<<20
	in.Data = []byte("payload")
	in.Vecs = []wireVec{{Off: 0, N: 3, Data: []byte("abc")}, {Off: 9, N: 5}}

	f := getFrame()
	payload := encodeRequest(f, in)
	if !bytes.Equal(payload, in.Data) {
		t.Fatalf("encodeRequest returned %q for the writev, want the Data payload", payload)
	}
	full := append(append([]byte(nil), f.b...), payload...)
	if got := binary.LittleEndian.Uint32(full[:4]); int(got) != len(full)-4 {
		t.Fatalf("length prefix declares %d bytes, body is %d", got, len(full)-4)
	}
	var out request
	if err := decodeRequest(full[4:], &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Flags != in.Flags || out.Tag != in.Tag ||
		out.Sess != in.Sess || out.PID != in.PID || out.Now != in.Now ||
		out.User != in.User || out.Secret != in.Secret || out.Resource != in.Resource ||
		out.Path != in.Path || out.Mode != in.Mode || out.Handle != in.Handle ||
		out.Off != in.Off || out.N != in.N || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("request round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if len(out.Vecs) != 2 ||
		out.Vecs[0].Off != 0 || out.Vecs[0].N != 3 || !bytes.Equal(out.Vecs[0].Data, []byte("abc")) ||
		out.Vecs[1].Off != 9 || out.Vecs[1].N != 5 || len(out.Vecs[1].Data) != 0 {
		t.Fatalf("vec round trip mismatch: %+v", out.Vecs)
	}
}

// TestResponseFrameRoundTrip does the same for server→client frames,
// including the QoS RetryAfter hint and the chunk-stream Off field.
func TestResponseFrameRoundTrip(t *testing.T) {
	in := getResponse()
	in.Tag, in.Err, in.Flags = 42, errOverload, flagChunked
	in.ErrMsg = "busy"
	in.RetryAfterNs = int64(250 * time.Millisecond)
	in.Now = 99 * time.Second
	in.Sess, in.Handle = 3, 17
	in.N, in.Size, in.Off = 4096, 1<<30, 256<<10
	in.Data = []byte("chunk-bytes")
	in.Vecs = [][]byte{[]byte("vec0"), nil, []byte("vec2")}
	in.Info = storage.FileInfo{Path: "wire/file", Size: 12}
	in.Infos = []storage.FileInfo{{Path: "a", Size: 1}, {Path: "", Size: -1}}

	f := getFrame()
	payload := encodeResponse(f, in)
	if !bytes.Equal(payload, in.Data) {
		t.Fatalf("encodeResponse returned %q for the writev, want the Data payload", payload)
	}
	full := append(append([]byte(nil), f.b...), payload...)
	var out response
	if err := decodeResponse(full[4:], &out); err != nil {
		t.Fatal(err)
	}
	if out.Tag != in.Tag || out.Err != in.Err || out.Flags != in.Flags ||
		out.ErrMsg != in.ErrMsg || out.RetryAfterNs != in.RetryAfterNs ||
		out.Now != in.Now || out.Sess != in.Sess || out.Handle != in.Handle ||
		out.N != in.N || out.Size != in.Size || out.Off != in.Off ||
		!bytes.Equal(out.Data, in.Data) || out.Info != in.Info {
		t.Fatalf("response round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if len(out.Vecs) != 3 || !bytes.Equal(out.Vecs[0], []byte("vec0")) ||
		len(out.Vecs[1]) != 0 || !bytes.Equal(out.Vecs[2], []byte("vec2")) {
		t.Fatalf("vecs mismatch: %q", out.Vecs)
	}
	if len(out.Infos) != 2 || out.Infos[0] != in.Infos[0] || out.Infos[1] != in.Infos[1] {
		t.Fatalf("infos mismatch: %+v", out.Infos)
	}
	// The overload hint must reconstruct exactly as the QoS layer
	// expects it client-side.
	err := decodeRespErr(&out)
	if !errors.Is(err, storage.ErrOverload) {
		t.Fatalf("decoded error %v does not wrap ErrOverload", err)
	}
	var ra interface{ RetryAfter() time.Duration }
	if !errors.As(err, &ra) || ra.RetryAfter() != 250*time.Millisecond {
		t.Fatalf("RetryAfter hint lost across the v3 frame: %v", err)
	}
}

// TestDecodeRejectsCorruptBodies: truncated sections, hostile inner
// length fields and trailing junk must all return errFrameCorrupt —
// never panic, never allocate from the declared length.
func TestDecodeRejectsCorruptBodies(t *testing.T) {
	in := getRequest()
	in.Op, in.Tag, in.Path = opOpen, 5, "wire/file"
	f := getFrame()
	encodeRequest(f, in)
	body := append([]byte(nil), f.b[4:]...)

	var out request
	if err := decodeRequest(body[:len(body)-3], &out); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("truncated body: %v", err)
	}
	if err := decodeRequest(append(body, 0xEE), &out); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("trailing junk: %v", err)
	}
	// Blow up the Path length field (first string section is User at a
	// fixed offset: 2 + 8*3 + 8 + 8 + 8 + 8 + 8 = 66 bytes of fixed
	// header).
	hostile := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(hostile[66:], 0xFFFFFFF0)
	if err := decodeRequest(hostile, &out); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("hostile inner length: %v", err)
	}
	var resp response
	if err := decodeResponse(body[:8], &resp); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("short response body: %v", err)
	}
}

// TestReadFrameCapsDeclaredLength: a length prefix over the cap is
// rejected before any allocation.
func TestReadFrameCapsDeclaredLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binary.LittleEndian.AppendUint32(nil, 1<<30))
	if _, err := readFrame(bufio.NewReader(&buf), 1<<20); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversize frame accepted: %v", err)
	}
	// A truncated body is corruption, not a clean EOF.
	buf.Reset()
	buf.Write(binary.LittleEndian.AppendUint32(nil, 100))
	buf.Write([]byte{1, 2, 3})
	if _, err := readFrame(bufio.NewReader(&buf), 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v", err)
	}
}

// countingReader counts the bytes its consumer has been handed.
type countingReader struct {
	r         io.Reader
	delivered int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.delivered += n
	return n, err
}

// TestReadFrameHeaderEdges: the length prefix is peeked in the reader's
// buffer, and the edges keep their meaning — nothing at all is a clean
// close, a torn header is corruption, and a length over the cap fails
// on the four header bytes alone.
func TestReadFrameHeaderEdges(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, 100)
	for n, want := range []error{io.EOF, io.ErrUnexpectedEOF, io.ErrUnexpectedEOF, io.ErrUnexpectedEOF} {
		f, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:n])), 1<<20)
		if f != nil || err != want {
			t.Errorf("%d header bytes then EOF: frame %v, err %v; want %v", n, f, err, want)
		}
	}

	// The header arrives in a read of its own (MultiReader never joins
	// two sources in one Read), so any further read readFrame caused
	// would deliver body bytes.
	src := &countingReader{r: io.MultiReader(
		bytes.NewReader(binary.LittleEndian.AppendUint32(nil, 1<<30)),
		bytes.NewReader(bytes.Repeat([]byte{0xEE}, 1<<16)),
	)}
	if _, err := readFrame(bufio.NewReader(src), 1<<20); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("length over the cap: %v, want errFrameTooBig", err)
	}
	if src.delivered != 4 {
		t.Errorf("reader delivered %d bytes before the cap verdict, want the 4 header bytes and none of the body", src.delivered)
	}
}

// hotCodecCycle returns one steady-state wire cycle — an opWrite
// request and an opRead response, each encoded into a pooled frame and
// decoded back — for the zero-alloc test and the codec benchmark.
func hotCodecCycle() func() {
	data := bytes.Repeat([]byte{0xAB}, 4096)
	wreq := getRequest()
	wreq.Op, wreq.Tag, wreq.Sess, wreq.PID = opWrite, 7, 1, 2
	wreq.Handle, wreq.Off, wreq.Data = 3, 8192, data
	rresp := getResponse()
	rresp.Tag, rresp.N, rresp.Size = 7, 4096, 1<<20
	rresp.Data = data

	wire := make([]byte, 0, 16<<10)
	return func() {
		f := getFrame()
		payload := encodeRequest(f, wreq)
		wire = append(wire[:0], f.b[4:]...)
		wire = append(wire, payload...)
		out := getRequest()
		if decodeRequest(wire, out) != nil {
			panic("corrupt request frame")
		}
		putRequest(out)
		putFrame(f)

		f = getFrame()
		payload = encodeResponse(f, rresp)
		wire = append(wire[:0], f.b[4:]...)
		wire = append(wire, payload...)
		ro := getResponse()
		if decodeResponse(wire, ro) != nil {
			panic("corrupt response frame")
		}
		putResponse(ro)
		putFrame(f)
	}
}

// TestHotFrameCodecZeroAlloc pins the tentpole claim: the steady-state
// opWrite request + opRead response encode/decode cycle allocates
// nothing once the pools are warm.
func TestHotFrameCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hot := hotCodecCycle()
	hot() // warm the pools
	if avg := testing.AllocsPerRun(200, hot); avg != 0 {
		t.Fatalf("hot opWrite/opRead frame codec: %v allocs/op, want 0", avg)
	}
}

// BenchmarkCodecRoundTrip: the v3 codec alone, one 4 KiB opWrite
// request and one 4 KiB opRead response encoded and decoded per op.
func BenchmarkCodecRoundTrip(b *testing.B) {
	hot := hotCodecCycle()
	hot()
	b.ReportAllocs()
	b.SetBytes(2 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hot()
	}
}

// TestOversizeFramePoisonsServer: a raw v3 connection declaring a body
// over the server's cap is dropped before the server allocates for it.
func TestOversizeFramePoisonsServer(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newChunkedServer(t, sim, 1024)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(wireMagic[:])
	conn.Write(binary.LittleEndian.AppendUint32(nil, DefaultMaxFrame+1))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept an oversize-frame connection open")
	}
}

// TestCorruptFramePoisonsServer: a well-framed but undecodable body
// poisons the connection exactly as a desynced gob stream did.
func TestCorruptFramePoisonsServer(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newChunkedServer(t, sim, 1024)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(wireMagic[:])
	conn.Write(binary.LittleEndian.AppendUint32(nil, 10))
	conn.Write(bytes.Repeat([]byte{0xFF}, 10)) // too short for the fixed header
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a corrupt-frame connection open")
	}
}

// fakeV3Server accepts connections and answers every request with
// reply(req).
func fakeV3Server(t *testing.T, reply func(req *request) *response) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := io.ReadFull(br, make([]byte, len(wireMagic))); err != nil {
					return
				}
				for {
					fr, err := readFrame(br, DefaultMaxFrame)
					if err != nil {
						return
					}
					var req request
					if err := decodeRequest(fr.b, &req); err != nil {
						return
					}
					resp := reply(&req)
					if resp == nil {
						io.Copy(io.Discard, conn) // hold the conn open silently
						return
					}
					f := getFrame()
					data := encodeResponse(f, resp)
					conn.Write(f.b)
					conn.Write(data)
				}
			}(conn)
		}
	}()
	return lis
}

// sendRawRequest writes one request frame straight onto a raw
// connection, as the client's writer would.
func sendRawRequest(t *testing.T, conn net.Conn, req *request) {
	t.Helper()
	f := getFrame()
	defer putFrame(f)
	data := encodeRequest(f, req)
	if _, err := conn.Write(append(f.b, data...)); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateStreamTagPoisonsConnection: a second chunked opPutFile
// head frame reusing a live tag is a corrupt stream.  Accepting it
// would replace the first stream's channel, which is then neither fed
// nor closed at teardown, so the first handler — and with it
// Server.Close — would block forever.
func TestDuplicateStreamTagPoisonsConnection(t *testing.T) {
	sim := vtime.NewVirtual()
	srv, _ := newServerOpts(t, sim)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	conn.Write(wireMagic[:])
	sendRawRequest(t, conn, &request{Op: opConnect, Tag: 1, PID: 1,
		User: "shen", Secret: "nwu", Resource: "sdsc-disk"})
	br := bufio.NewReader(conn)
	f, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := decodeResponse(f.b, &resp); err != nil || resp.Err != errNone {
		t.Fatalf("connect: decode %v, code %d %q", err, resp.Err, resp.ErrMsg)
	}

	head := &request{Op: opPutFile, Flags: flagChunked, Tag: 2, Sess: resp.Sess, PID: 1,
		Path: "dup/file", Mode: storage.ModeCreate, N: 4096, Data: make([]byte, 1024)}
	sendRawRequest(t, conn, head)
	sendRawRequest(t, conn, head)
	// The server must hang up on the duplicate rather than wait for
	// chunk frames.
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Errorf("server kept a duplicate-stream-tag connection open: %v", err)
	}
	conn.Close()

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung behind the orphaned first stream handler")
	}
}

// TestNonV3PreambleRejected: a connection that does not open with the
// magic preamble is closed with nothing written to it and no session
// registered, whatever it speaks instead, and the listener keeps
// serving well-formed clients.
func TestNonV3PreambleRejected(t *testing.T) {
	var gobConnect bytes.Buffer
	if err := gob.NewEncoder(&gobConnect).Encode(&request{Op: opConnect, Tag: 1, PID: 1,
		User: "shen", Secret: "nwu", Resource: "sdsc-disk"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		send    []byte
		wantLog bool // a short read is a peer hanging up, not a protocol error
	}{
		{"gob connect", gobConnect.Bytes(), true},
		{"http", []byte("GET / HTTP/1.1\r\n"), true},
		{"three bytes then EOF", wireMagic[:3], false},
	}

	sim := vtime.NewVirtual()
	srv, client := newServerOpts(t, sim)
	var logMu sync.Mutex
	var logs []string
	srv.SetLogf(func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logMu.Lock()
			logs = nil
			logMu.Unlock()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			conn.(*net.TCPConn).CloseWrite()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("server kept the connection open: %v", err)
			}
			if len(got) != 0 {
				t.Fatalf("server wrote %d bytes (% x) to a rejected connection", len(got), got)
			}
			srv.sessMu.Lock()
			nsess := len(srv.sessions)
			srv.sessMu.Unlock()
			if nsess != 0 {
				t.Fatalf("%d sessions registered by a rejected connection", nsess)
			}
			logMu.Lock()
			defer logMu.Unlock()
			logged := len(logs) == 1 && strings.Contains(logs[0], "unsupported wire preamble")
			if tc.wantLog && !logged {
				t.Fatalf("log = %q, want one unsupported-preamble line", logs)
			}
			if !tc.wantLog && len(logs) != 0 {
				t.Fatalf("log = %q, want silence", logs)
			}
		})
	}

	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatalf("connect after rejected peers: %v", err)
	}
	wf := sess.(storage.WholeFiler)
	if err := wf.PutFile(p, "after/reject", storage.ModeCreate, []byte("still serving")); err != nil {
		t.Fatal(err)
	}
	if got, err := wf.GetFile(p, "after/reject"); err != nil || string(got) != "still serving" {
		t.Fatalf("round trip after rejected peers: %q, %v", got, err)
	}
}

// TestV3DesyncPoisonsConnection: a response tag that was never issued
// poisons the pooled connection and fails the call.
func TestV3DesyncPoisonsConnection(t *testing.T) {
	lis := fakeV3Server(t, func(req *request) *response {
		return &response{Tag: req.Tag + 12345}
	})
	sim := vtime.NewVirtual()
	client := NewClient(lis.Addr().String(), "shen", "nwu", "r", storage.KindRemoteDisk)
	defer client.Close()
	if _, err := client.Connect(sim.NewProc("p")); err == nil {
		t.Fatal("connect through a desynced v3 stream succeeded")
	}
	client.mu.Lock()
	nconns := len(client.conns)
	client.mu.Unlock()
	if nconns != 0 {
		t.Fatalf("poisoned connection still pooled (%d conns)", nconns)
	}
}

// TestTruncatedFramePoisonsClient: a response frame that dies mid-body
// is corruption, not a clean close — the connection must be poisoned
// and the call must fail rather than hang.
func TestTruncatedFramePoisonsClient(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				io.ReadFull(br, make([]byte, len(wireMagic)))
				if _, err := readFrame(br, DefaultMaxFrame); err != nil {
					return
				}
				conn.Write(binary.LittleEndian.AppendUint32(nil, 100))
				conn.Write([]byte{1, 2, 3, 4, 5}) // declared 100, deliver 5
			}(conn)
		}
	}()
	sim := vtime.NewVirtual()
	client := NewClient(lis.Addr().String(), "shen", "nwu", "r", storage.KindRemoteDisk)
	defer client.Close()
	_, err = client.Connect(sim.NewProc("p"))
	if err == nil {
		t.Fatal("connect over a truncated v3 stream succeeded")
	}
	if !errors.Is(err, errConnFailed) {
		t.Fatalf("truncated frame error %v not classified as a transport failure", err)
	}
	client.mu.Lock()
	nconns := len(client.conns)
	client.mu.Unlock()
	if nconns != 0 {
		t.Fatalf("poisoned connection still pooled (%d conns)", nconns)
	}
}

// TestOversizeResponsePoisonsClient: the client applies the same
// declared-length cap as the server, so a hostile
// server cannot make it allocate an arbitrary buffer.
func TestOversizeResponsePoisonsClient(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				io.ReadFull(br, make([]byte, len(wireMagic)))
				if _, err := readFrame(br, DefaultMaxFrame); err != nil {
					return
				}
				conn.Write(binary.LittleEndian.AppendUint32(nil, 1<<30))
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()
	sim := vtime.NewVirtual()
	client := NewClient(lis.Addr().String(), "shen", "nwu", "r", storage.KindRemoteDisk,
		func(c *Client) { c.maxFrame = 1 << 20 })
	defer client.Close()
	if _, err := client.Connect(sim.NewProc("p")); err == nil {
		t.Fatal("connect over an oversize-frame stream succeeded")
	}
}

// TestChunkedWholeFileRoundTrip drives PutFile/GetFile through the
// chunk-streaming protocol (1 KiB chunks, ~100 KiB payload — 100
// frames each way) and checks the bytes and the virtual clock.
func TestChunkedWholeFileRoundTrip(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newChunkedServer(t, sim, 1024)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	wf := sess.(storage.WholeFiler)

	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	before := p.Now()
	if err := wf.PutFile(p, "big/file", storage.ModeCreate, data); err != nil {
		t.Fatal(err)
	}
	if p.Now() <= before {
		t.Fatal("chunked PutFile charged no virtual time")
	}
	got, err := wf.GetFile(p, "big/file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("chunked round trip corrupted the payload (%d bytes back, want %d)", len(got), len(data))
	}
	// A sub-threshold file must keep the single-frame path.
	small := []byte("small payload")
	if err := wf.PutFile(p, "small/file", storage.ModeCreate, small); err != nil {
		t.Fatal(err)
	}
	if got, err := wf.GetFile(p, "small/file"); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("small-file round trip: %q, %v", got, err)
	}
	// The chunk streams must not have poisoned the pooled connection.
	client.mu.Lock()
	nconns := len(client.conns)
	client.mu.Unlock()
	if nconns == 0 {
		t.Fatal("connection pool empty after chunked transfers")
	}
	if err := sess.Close(p); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedPutErrorDrainsStream: when the server rejects a streamed
// put (open failure), it must consume the remaining chunk frames so
// the connection's decode loop doesn't wedge — the session stays
// usable afterwards.
func TestChunkedPutErrorDrainsStream(t *testing.T) {
	sim := vtime.NewVirtual()
	_, client := newChunkedServer(t, sim, 1024)
	p := sim.NewProc("p")
	sess, err := client.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	wf := sess.(storage.WholeFiler)
	big := bytes.Repeat([]byte{0x5A}, 64<<10)
	// ModeRead on a nonexistent path: the server-side Open fails after
	// the client has already queued all 64 chunk frames.
	if err := wf.PutFile(p, "no/such/file", storage.ModeRead, big); err == nil {
		t.Fatal("streamed put with ModeRead succeeded")
	} else if errors.Is(err, errConnFailed) {
		t.Fatalf("server error came back as a transport failure: %v", err)
	}
	// The same connection must still serve requests.
	if err := wf.PutFile(p, "ok/file", storage.ModeCreate, big); err != nil {
		t.Fatal(err)
	}
	got, err := wf.GetFile(p, "ok/file")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("post-drain round trip: %d bytes, %v", len(got), err)
	}
}
