package superfile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// TestPutVRoundTrip appends a batch in one vectored write and reads
// every member back after reopen.
func TestPutVRoundTrip(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, err := Create(p, sess, "batch.sf")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(p, "head", []byte("head-bytes")); err != nil {
		t.Fatal(err)
	}
	var names []string
	var blobs [][]byte
	for i := 0; i < 12; i++ {
		names = append(names, fmt.Sprintf("img%04d", i))
		blobs = append(blobs, bytes.Repeat([]byte{byte(i + 1)}, 50+i))
	}
	if err := c.PutV(p, names, blobs); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 13 {
		t.Fatalf("Len = %d, want 13", c.Len())
	}
	if err := c.Close(p); err != nil {
		t.Fatal(err)
	}

	r, err := Open(p, sess, "batch.sf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(p)
	if got, err := r.Get(p, "head"); err != nil || string(got) != "head-bytes" {
		t.Fatalf("head = %q, %v", got, err)
	}
	for i, name := range names {
		got, err := r.Get(p, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("member %q corrupted", name)
		}
	}
}

// TestPutVRejectsDuplicates covers both collision classes: against the
// existing index and within the batch itself.  A rejected batch commits
// nothing.
func TestPutVRejectsDuplicates(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, err := Create(p, sess, "dup.sf")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(p, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutV(p, []string{"b", "a"}, [][]byte{{2}, {3}}); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("index collision = %v, want ErrExist", err)
	}
	if err := c.PutV(p, []string{"c", "c"}, [][]byte{{4}, {5}}); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("in-batch collision = %v, want ErrExist", err)
	}
	if c.Len() != 1 {
		t.Fatalf("failed batches committed entries: Len = %d", c.Len())
	}
	if err := c.PutV(p, []string{"x"}, [][]byte{{6}, {7}}); err == nil {
		t.Fatal("mismatched names/blobs accepted")
	}
}

// TestPutVReadOnly rejects batches on read-only containers.
func TestPutVReadOnly(t *testing.T) {
	sess, p := setup(t, model.Params{Name: "memory"})
	c, err := Create(p, sess, "ro.sf")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(p, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(p); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p, sess, "ro.sf")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(p)
	if err := r.PutV(p, []string{"b"}, [][]byte{{2}}); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("read-only PutV = %v, want ErrReadOnly", err)
	}
}
