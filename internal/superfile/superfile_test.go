package superfile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vtime"
)

func setup(t *testing.T, params model.Params) (storage.Session, *vtime.Proc) {
	t.Helper()
	be, err := device.New(device.Config{Name: "b", Params: params, Store: memfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	p := vtime.NewVirtual().NewProc("p")
	sess, err := be.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	return sess, p
}

func TestPutGetRoundTrip(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, err := Create(p, sess, "images.sf")
	if err != nil {
		t.Fatal(err)
	}
	members := map[string][]byte{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("image%04d.pgm", i)
		data := bytes.Repeat([]byte{byte(i)}, 100+i)
		members[name] = data
		if err := c.Put(p, name, data); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Writers can read back before close.
	got, err := c.Get(p, "image0003.pgm")
	if err != nil || !bytes.Equal(got, members["image0003.pgm"]) {
		t.Fatalf("writer Get = %v, %v", got, err)
	}
	if err := c.Close(p); err != nil {
		t.Fatal(err)
	}

	r, err := Open(p, sess, "images.sf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(p)
	for name, want := range members {
		got, err := r.Get(p, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) = %d bytes, %v", name, len(got), err)
		}
	}
	names := r.Names()
	if len(names) != 10 || names[0] != "image0000.pgm" {
		t.Fatalf("Names = %v", names)
	}
}

func TestFirstGetFetchesWholeContainer(t *testing.T) {
	// Per-call pricing: first Get costs one native call (after the two
	// index reads at Open); later Gets are free.
	params := model.Params{Name: "calls", PerCallRead: time.Second, PerCallWrite: time.Millisecond}
	sess, p := setup(t, params)
	c, _ := Create(p, sess, "sf")
	for i := 0; i < 50; i++ {
		c.Put(p, fmt.Sprintf("f%02d", i), []byte{byte(i)})
	}
	c.Close(p)

	r, err := Open(p, sess, "sf")
	if err != nil {
		t.Fatal(err)
	}
	afterOpen := p.Now()
	if _, err := r.Get(p, "f07"); err != nil {
		t.Fatal(err)
	}
	firstGet := p.Now() - afterOpen
	if firstGet != time.Second {
		t.Fatalf("first Get = %v, want exactly one native read", firstGet)
	}
	before := p.Now()
	for i := 0; i < 50; i++ {
		if _, err := r.Get(p, fmt.Sprintf("f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Now() != before {
		t.Fatalf("cached Gets charged %v, want 0", p.Now()-before)
	}
}

func TestGetMissing(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, _ := Create(p, sess, "sf")
	c.Put(p, "a", []byte{1})
	c.Close(p)
	r, _ := Open(p, sess, "sf")
	if _, err := r.Get(p, "b"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("missing entry = %v", err)
	}
}

func TestDuplicatePut(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, _ := Create(p, sess, "sf")
	c.Put(p, "a", []byte{1})
	if err := c.Put(p, "a", []byte{2}); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("duplicate put = %v", err)
	}
}

func TestPutOnReadOnly(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, _ := Create(p, sess, "sf")
	c.Put(p, "a", []byte{1})
	c.Close(p)
	r, _ := Open(p, sess, "sf")
	if err := r.Put(p, "b", []byte{2}); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("put on read-only = %v", err)
	}
}

func TestClosedContainer(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, _ := Create(p, sess, "sf")
	c.Close(p)
	if err := c.Put(p, "x", []byte{1}); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("put after close = %v", err)
	}
	if _, err := c.Get(p, "x"); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("get after close = %v", err)
	}
	if err := c.Close(p); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	h, _ := sess.Open(p, "junk", storage.ModeCreate)
	h.WriteAt(p, bytes.Repeat([]byte{0x42}, 64), 0)
	h.Close(p)
	if _, err := Open(p, sess, "junk"); err == nil {
		t.Fatal("garbage container opened")
	}
	h2, _ := sess.Open(p, "tiny", storage.ModeCreate)
	h2.WriteAt(p, []byte{1, 2, 3}, 0)
	h2.Close(p)
	if _, err := Open(p, sess, "tiny"); err == nil {
		t.Fatal("tiny container opened")
	}
}

// Property: any set of distinct names/payloads round-trips.
func TestQuickContainerRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		sess, p := setup(t, model.Params{Name: "memory"})
		c, err := Create(p, sess, "sf")
		if err != nil {
			return false
		}
		want := make(map[string][]byte, len(payloads))
		for i, data := range payloads {
			name := fmt.Sprintf("m%d", i)
			want[name] = data
			if err := c.Put(p, name, data); err != nil {
				return false
			}
		}
		if err := c.Close(p); err != nil {
			return false
		}
		r, err := Open(p, sess, "sf")
		if err != nil {
			return false
		}
		defer r.Close(p)
		for name, data := range want {
			got, err := r.Get(p, name)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
