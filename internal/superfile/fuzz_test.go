package superfile

import (
	"testing"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/vtime"
)

// FuzzOpen: arbitrary container bytes must never panic Open; they either
// parse or fail cleanly.
func FuzzOpen(f *testing.F) {
	// Seed with a valid container and a few corruptions.
	valid := func() []byte {
		be, _ := device.New(device.Config{Name: "b", Params: model.Params{Name: "memory"}, Store: memfs.New()})
		p := vtime.NewVirtual().NewProc("p")
		sess, _ := be.Connect(p)
		c, _ := Create(p, sess, "sf")
		c.Put(p, "a", []byte("hello"))
		c.Put(p, "b", []byte("world"))
		c.Close(p)
		h, _ := sess.Open(p, "sf", storage.ModeRead)
		buf := make([]byte, h.Size())
		h.ReadAt(p, buf, 0)
		return buf
	}()
	f.Add(valid)
	f.Add([]byte("short"))
	f.Add(append([]byte("garbagegarbage"), valid[len(valid)-16:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		be, err := device.New(device.Config{Name: "b", Params: model.Params{Name: "memory"}, Store: memfs.New()})
		if err != nil {
			t.Fatal(err)
		}
		p := vtime.NewVirtual().NewProc("p")
		sess, err := be.Connect(p)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sess.Open(p, "sf", storage.ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if _, err := h.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
		}
		h.Close(p)
		c, err := Open(p, sess, "sf")
		if err != nil {
			return // clean rejection
		}
		for _, name := range c.Names() {
			c.Get(p, name) // must not panic even on corrupt indexes
		}
		c.Close(p)
	})
}
