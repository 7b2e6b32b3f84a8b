package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/qos"
	"repro/internal/srb"
	"repro/internal/srbnet"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/vtime"
)

// ------------------------------------------------------------------
// QoS: the multi-tenant scheduler's two headline wins, each measured
// against an arrival-order baseline through the same scheduler: one
// account has one DRR flow, and a flow is served in arrival order; no
// tape library means no batch lane.
//
// Fair-share isolation: a greedy tenant keeps the single remote-disk
// channel saturated with bulk writes while an interactive tenant
// issues small reads — the paper's viewer-next-to-Astro3D scenario.
// Sharing the greedy account, every interactive read waits behind the
// greedy backlog (the "fifo" columns); under its own account the
// predictor-priced DRR and the interactive tenant's high weight let
// each read overtake the queue, so its p95 latency collapses to one
// residual greedy transfer.  Latency is virtual time: the sim runs in
// scaled mode so grant order controls device acquisition order exactly
// as it would on real hardware.
//
// Tape batching: 24 archived files striped over ~6 cartridges are
// re-read in a deterministically shuffled order by 24 concurrent
// requests.  Arrival order replays the shuffle and thrashes the 2-drive
// library's mounts; the batch lane groups queued reads by cartridge
// and orders them by tape position, so the robot mounts each cartridge
// about once.

// QoSResult holds both parts of the experiment.
type QoSResult struct {
	// Fair-share isolation part.
	Feeders          int           // greedy writer goroutines
	GreedyBytes      int           // bytes per greedy write
	InteractiveOps   int           // measured interactive reads
	InteractiveBytes int           // bytes per interactive read
	FIFOP95          time.Duration // interactive p95, sharing the greedy account
	QoSP95           time.Duration // interactive p95, DRR scheduler

	// Tape batching part.
	TapeFiles     int   // archived files re-read
	TapeFileBytes int   // bytes per file
	Cartridges    int   // cartridges holding them
	FIFOMounts    int64 // robot mounts for the re-read, no batch lane
	BatchMounts   int64 // robot mounts for the re-read, batch lane
	Batches       int64 // batches the lane formed
	Batched       int64 // requests served through batches
}

// Isolation is the interactive tenant's p95 improvement factor.
func (r QoSResult) Isolation() float64 {
	if r.QoSP95 <= 0 {
		return 0
	}
	return r.FIFOP95.Seconds() / r.QoSP95.Seconds()
}

// MountWin is the tape mount reduction factor.
func (r QoSResult) MountWin() float64 {
	if r.BatchMounts <= 0 {
		return 0
	}
	return float64(r.FIFOMounts) / float64(r.BatchMounts)
}

// Headline flattens the result into the scalars the gate reads.
func (r QoSResult) Headline() map[string]float64 {
	return map[string]float64{
		"isolation_x":  r.Isolation(),
		"fifo_p95_s":   r.FIFOP95.Seconds(),
		"qos_p95_s":    r.QoSP95.Seconds(),
		"fifo_mounts":  float64(r.FIFOMounts),
		"batch_mounts": float64(r.BatchMounts),
		"mount_win_x":  r.MountWin(),
		"batches":      float64(r.Batches),
	}
}

// QoS runs both parts, each once as the arrival-order baseline and once
// with the scheduler's policy reachable, in fresh environments.  scale
// is accepted for table uniformity; the workload is fixed-size (it
// measures the scheduler, not the solver).
func QoS(scale Scale) (QoSResult, error) {
	res := QoSResult{
		Feeders: 24, GreedyBytes: 512 << 10,
		InteractiveOps: 12, InteractiveBytes: 16 << 10,
		TapeFiles: 24, TapeFileBytes: 128 << 10,
	}

	// The predictor pricing the DRR costs comes from a standard PTool
	// sweep (virtual time, instant); only the curves are reused.
	env, err := NewEnv()
	if err != nil {
		return res, err
	}
	pricer := qos.PredictPricer(env.PDB)

	if res.FIFOP95, err = qosFairnessRun(res, pricer, "greedy"); err != nil {
		return res, err
	}
	if res.QoSP95, err = qosFairnessRun(res, pricer, "inter"); err != nil {
		return res, err
	}

	if res.FIFOMounts, _, _, err = qosTapeRun(res, false); err != nil {
		return res, err
	}
	var st qos.Stats
	if res.BatchMounts, res.Cartridges, st, err = qosTapeRun(res, true); err != nil {
		return res, err
	}
	res.Batches, res.Batched = st.Batches, st.Batched
	return res, nil
}

// qosFairnessRun measures the interactive client's p95 read latency
// (virtual time) beside a saturating greedy client.  The interactive
// client logs in as interUser: "inter" is its own weight-8 tenant,
// "greedy" puts its reads in the greedy flow's arrival order.
func qosFairnessRun(res QoSResult, pricer qos.Pricer, interUser string) (time.Duration, error) {
	// 1 virtual second = 1 wall millisecond: a 512 KiB remote write
	// (~2 s virtual) occupies the channel for ~2 ms of real time —
	// large against RPC transit and goroutine scheduling even under
	// the race detector's slowdown, so grant order genuinely is
	// acquisition order and only the in-flight transfer's residual
	// leaks into an overtaking read's latency.
	sim := vtime.NewScaled(1e-3)
	broker := srb.NewBroker()
	be, err := device.New(device.Config{
		Name: "sdsc-disk", Kind: storage.KindRemoteDisk,
		Params: model.RemoteDisk2000(), Store: memfs.New(), Channels: 1,
	})
	if err != nil {
		return 0, err
	}
	if err := broker.Register(be); err != nil {
		return 0, err
	}
	broker.AddUser("greedy", "pw")
	broker.AddUser("inter", "pw")
	sched, err := qos.New(qos.Config{
		Tenants:     map[string]int{"inter": 8, "greedy": 1},
		MaxInFlight: 1,
		Price:       pricer,
	})
	if err != nil {
		return 0, err
	}
	defer sched.Close()
	srv, err := srbnet.Serve("127.0.0.1:0", broker, sim, srbnet.WithScheduler(sched))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})

	gClient := srbnet.NewClient(srv.Addr(), "greedy", "pw", "sdsc-disk", storage.KindRemoteDisk)
	defer gClient.Close()
	iClient := srbnet.NewClient(srv.Addr(), interUser, "pw", "sdsc-disk", storage.KindRemoteDisk)
	defer iClient.Close()

	// Interactive setup happens before the flood: create the small
	// file and hold a read handle.
	ip := sim.NewProc("inter")
	isess, err := iClient.Connect(ip)
	if err != nil {
		return 0, err
	}
	small := make([]byte, res.InteractiveBytes)
	wh, err := isess.Open(ip, "inter/hot", storage.ModeCreate)
	if err != nil {
		return 0, err
	}
	if _, err := wh.WriteAt(ip, small, 0); err != nil {
		return 0, err
	}
	if err := wh.Close(ip); err != nil {
		return 0, err
	}
	rh, err := isess.Open(ip, "inter/hot", storage.ModeRead)
	if err != nil {
		return 0, err
	}

	gp0 := sim.NewProc("greedy0")
	gsess, err := gClient.Connect(gp0)
	if err != nil {
		return 0, err
	}
	procs := make([]*vtime.Proc, res.Feeders)
	handles := make([]storage.Handle, res.Feeders)
	for i := range procs {
		procs[i] = sim.NewProc(fmt.Sprintf("greedy%d", i))
		h, err := gsess.Open(procs[i], fmt.Sprintf("greedy/f%d", i), storage.ModeCreate)
		if err != nil {
			return 0, err
		}
		handles[i] = h
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	ferrs := make([]error, res.Feeders)
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, res.GreedyBytes)
			for !stop.Load() {
				if _, err := handles[i].WriteAt(procs[i], buf, 0); err != nil {
					ferrs[i] = err
					return
				}
			}
		}(i)
	}

	// Measure once the greedy backlog is standing.
	minDepth := res.Feeders - 2
	waitDepth := func() {
		for sched.QueueDepth() < minDepth && !stop.Load() {
			time.Sleep(20 * time.Microsecond)
		}
	}
	lats := make([]time.Duration, 0, res.InteractiveOps)
	buf := make([]byte, res.InteractiveBytes)
	var rerr error
	for k := 0; k < res.InteractiveOps; k++ {
		waitDepth()
		before := ip.Now()
		if _, err := rh.ReadAt(ip, buf, 0); err != nil {
			rerr = err
			break
		}
		lats = append(lats, ip.Now()-before)
	}
	stop.Store(true)
	wg.Wait()
	if rerr != nil {
		return 0, rerr
	}
	for _, err := range ferrs {
		if err != nil {
			return 0, err
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := (len(lats)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return lats[idx], nil
}

// qosTapeOrder is the deterministic shuffle of the re-read: stride 7
// over 24 files alternates cartridges nearly every access, the worst
// case for a 2-drive LRU library replaying arrival order.
func qosTapeOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (i * 7) % n
	}
	return order
}

// qosTapeRun archives the files, then re-reads them concurrently in
// the shuffled order and reports the robot mounts charged to the
// re-read, the cartridge count, and the batches formed.  Only with
// lane set does the scheduler see the library, and so have a batch lane.
func qosTapeRun(res QoSResult, lane bool) (mounts int64, carts int, st qos.Stats, err error) {
	sim := vtime.NewScaled(1e-4)
	broker := srb.NewBroker()
	lib, err := tape.New(tape.Config{
		Name: "sdsc-hpss", Params: model.RemoteTape2000(), Store: memfs.New(),
		Drives: 2, CartridgeCapacity: int64(4 * res.TapeFileBytes),
	})
	if err != nil {
		return 0, 0, qos.Stats{}, err
	}
	if err := broker.Register(lib); err != nil {
		return 0, 0, qos.Stats{}, err
	}
	broker.AddUser("viewer", "pw")
	cfg := qos.Config{MaxInFlight: 1}
	if lane {
		cfg.Tape = lib
	}
	sched, err := qos.New(cfg)
	if err != nil {
		return 0, 0, qos.Stats{}, err
	}
	defer sched.Close()
	srv, err := srbnet.Serve("127.0.0.1:0", broker, sim, srbnet.WithScheduler(sched))
	if err != nil {
		return 0, 0, qos.Stats{}, err
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})
	client := srbnet.NewClient(srv.Addr(), "viewer", "pw", "sdsc-hpss", storage.KindRemoteTape)
	defer client.Close()

	wp := sim.NewProc("archiver")
	wsess, err := client.Connect(wp)
	if err != nil {
		return 0, 0, qos.Stats{}, err
	}
	payload := make([]byte, res.TapeFileBytes)
	for i := 0; i < res.TapeFiles; i++ {
		h, err := wsess.Open(wp, fmt.Sprintf("batch/f%02d", i), storage.ModeCreate)
		if err != nil {
			return 0, 0, qos.Stats{}, err
		}
		if _, err := h.WriteAt(wp, payload, 0); err != nil {
			return 0, 0, qos.Stats{}, err
		}
		if err := h.Close(wp); err != nil {
			return 0, 0, qos.Stats{}, err
		}
	}
	writeMounts, carts, _ := lib.Stats()

	// Queue all 24 reads in the shuffled arrival order while the
	// scheduler is paused, so both disciplines see the identical queue.
	order := qosTapeOrder(res.TapeFiles)
	sched.Pause()
	var wg sync.WaitGroup
	rerrs := make([]error, res.TapeFiles)
	type wf interface {
		GetFile(p *vtime.Proc, name string) ([]byte, error)
	}
	getter, ok := wsess.(wf)
	if !ok {
		return 0, 0, qos.Stats{}, fmt.Errorf("qos experiment: session is not a whole-filer")
	}
	for k := 0; k < res.TapeFiles; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Serialize arrival: k-th request enqueues once the k
			// previous ones are queued.
			for sched.QueueDepth() != k {
				time.Sleep(20 * time.Microsecond)
			}
			p := sim.NewProc(fmt.Sprintf("reader%d", k))
			data, err := getter.GetFile(p, fmt.Sprintf("batch/f%02d", order[k]))
			if err == nil && len(data) != res.TapeFileBytes {
				err = fmt.Errorf("short read: %d of %d bytes", len(data), res.TapeFileBytes)
			}
			rerrs[k] = err
		}(k)
	}
	// All queued (depth == TapeFiles) before any grant.
	for sched.QueueDepth() != res.TapeFiles {
		time.Sleep(20 * time.Microsecond)
	}
	sched.Resume()
	wg.Wait()
	for _, err := range rerrs {
		if err != nil {
			return 0, 0, qos.Stats{}, err
		}
	}
	total, carts, _ := lib.Stats()
	return total - writeMounts, carts, sched.Stats(), nil
}

// QoSString renders the experiment report.
func QoSString(r QoSResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fair share: %d greedy writers × %d KiB vs interactive %d KiB reads (×%d)\n",
		r.Feeders, r.GreedyBytes>>10, r.InteractiveBytes>>10, r.InteractiveOps)
	fmt.Fprintf(&b, "  interactive p95: fifo %8.2f s   qos %8.2f s   (%.1f× isolation)\n",
		r.FIFOP95.Seconds(), r.QoSP95.Seconds(), r.Isolation())
	fmt.Fprintf(&b, "tape batching: %d files × %d KiB over %d cartridges, shuffled re-read\n",
		r.TapeFiles, r.TapeFileBytes>>10, r.Cartridges)
	fmt.Fprintf(&b, "  robot mounts: fifo %d   qos %d   (%.1f× fewer; %d batches)\n",
		r.FIFOMounts, r.BatchMounts, r.MountWin(), r.Batches)
	return b.String()
}
