// Command habench is the framework's benchmark: it runs one workload
// against an in-process memnet cluster built from core.NewServer, checks
// every answer against digests the load clients compute themselves, and
// prints the run's metrics. With -trace 1 it wraps the public seams of
// each layer and prints the per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash habench/run.sh --workload request --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before
// it stamps the machine and commit. A human-readable table goes to
// standard error. The exit code is non-zero when an oracle fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hafw/internal/core"
	"hafw/internal/metrics"
)

// minRounds is the fewest rounds a closed-loop run makes, so its
// medians and setup_s always have several samples.
const minRounds = 3

// minSetups is the fewest set-ups a run times for setup_s.
const minSetups = 25

// warmup runs the open loop untimed after set-up, so codec engines are
// built and the first propagations have happened before the window opens.
const warmup = 500 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload: request, session or failover")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Int("seconds", 10, "length of the timed window, seconds")
		traceFlag  = flag.Int("trace", 0, "1 wraps each layer's seams and reports per-layer metrics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "habench: want --workload request|session|failover, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "habench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, res)
	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"rounds": res.rounds, "resent": res.resent, "unsettled": unsettled.Load(), "cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(),
	}
	line, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(line))
	out := output{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	line, _ = json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "habench: oracle:", p)
		}
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

type runResult struct {
	rounds                    int
	setupS                    []float64
	attempted, failed, resent int64
	problems                  []string
	metrics                   map[string]metric
}

// reading is the process and cluster state at one edge of a round's
// timed part.
type reading struct {
	at      time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	tc      traceCounts
	clients core.ClientStats
	resends int64
	vc      map[vcKey][2]float64 // count, sum (ns)
	fsync   [2]float64           // count, sum (ns)
	wal     int64
	steal   int64 // the machine's stolen CPU time, jiffies
}

// stolen reads the steal column of /proc/stat: CPU time the hypervisor
// gave to other guests while this machine's CPUs had work.
func stolen() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

var phases = []string{"membership", "state_exchange", "barrier"}

type vcKey struct {
	phase string
	h     *metrics.Histogram
}

func phaseHist(reg *metrics.Registry, phase string) *metrics.Histogram {
	return reg.Histogram(`viewchange_duration_seconds{phase="` + phase + `"}`)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// views counts the content views the servers have installed, summed
// over every server ever started.
func views(e *env) uint64 {
	var n uint64
	for _, reg := range e.cl.registries() {
		n += reg.Counter("content_views").Value()
	}
	return n
}

func read(e *env, wal *walPoller) reading {
	r := reading{at: time.Now(), cpu: cpuTime(), steal: stolen(), vc: map[vcKey][2]float64{}}
	for _, lc := range e.clients {
		st := lc.c.Stats()
		r.clients.Sends += st.Sends
		r.clients.Reresolves += st.Reresolves
		r.clients.Retries += st.Retries
		r.resends += lc.resends.Load()
	}
	if tr := e.cl.cfg.tr; tr != nil {
		runtime.ReadMemStats(&r.mem)
		r.tc = tr.read()
		for _, reg := range e.cl.registries() {
			for _, ph := range phases {
				h := phaseHist(reg, ph)
				r.vc[vcKey{ph, h}] = [2]float64{float64(h.Count()), float64(h.Mean()) * float64(h.Count())}
			}
			h := reg.Histogram("wal_fsync_seconds")
			r.fsync[0] += float64(h.Count())
			r.fsync[1] += float64(h.Mean()) * float64(h.Count())
		}
	}
	if wal != nil {
		r.wal = wal.total()
	}
	return r
}

// setUpTries bounds how often set-up starts over on a deployment that
// does not settle.
const setUpTries = 3

// unsettled counts the deployments set up again because they did not
// settle.
var unsettled atomic.Int64

// setUp builds a settled deployment with its long-lived sessions open,
// starting over on one that does not settle.
func setUp(w workload, seed int64, round int, tr *tracer) (*env, error) {
	var err error
	for try := 0; try < setUpTries; try++ {
		var e *env
		if e, err = setUpOnce(w, seed, round, tr); !errors.Is(err, errUnsettled) {
			return e, err
		}
		unsettled.Add(1)
		fmt.Fprintf(os.Stderr, "habench: %v; setting up again\n", err)
	}
	return nil, err
}

// setUpOnce builds the deployment and opens the long-lived sessions.
func setUpOnce(w workload, seed int64, round int, tr *tracer) (*env, error) {
	cfg := w.cluster
	cfg.tr = tr
	cl, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{cl: cl}
	for i := 0; i < w.clients; i++ {
		lc, err := newLoadClient(cl, i, uint64(seed)<<16^uint64(round))
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, lc)
		var lss []*loadSession
		for j := 0; j < w.long; j++ {
			ls, err := lc.open()
			if err != nil {
				e.close()
				return nil, fmt.Errorf("open long-lived session: %w", err)
			}
			lss = append(lss, ls)
		}
		e.long = append(e.long, lss)
	}
	if err := cl.waitSettled(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// lanes runs f once per lane of every load client, concurrently, and
// waits for all.
func lanes(w workload, e *env, f func(lc *loadClient, lane int)) {
	var wg sync.WaitGroup
	for _, lc := range e.clients {
		for lane := 0; lane < w.lanes; lane++ {
			lc, lane := lc, lane
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(lc, lane)
			}()
		}
	}
	wg.Wait()
}

// round is one round's timed measurements.
type round struct {
	rec        *recorder
	begin, end reading
	resends    int64 // benchmark resends, including the failover drain
	retries    uint64
	views      uint64 // views installed from the end of set-up to the final oracle
}

// closedRound runs warmOps untimed and roundOps timed operations on every
// load client, then the round's final oracle.
func closedRound(w workload, e *env, wal *walPoller) round {
	views0 := views(e)
	lanes(w, e, func(lc *loadClient, lane int) {
		for n := 0; n < w.warmOps; n++ {
			if _, _, err := w.op(e, lc, lane, n); err != nil {
				return // the timed operations report it
			}
		}
	})
	rec := &recorder{}
	e.cl.cfg.tr.setTiming(true)
	begin := read(e, wal)
	lanes(w, e, func(lc *loadClient, lane int) {
		for n := w.warmOps; n < w.warmOps+w.roundOps; n++ {
			start, req, err := w.op(e, lc, lane, n)
			rec.outcome(start, req, err)
		}
	})
	end := read(e, wal)
	e.cl.cfg.tr.setTiming(false)
	if err := w.check(e, rec); err != nil {
		rec.fault(err)
	}
	return round{rec: rec, begin: begin, end: end, resends: end.resends - begin.resends,
		retries: end.clients.Retries - begin.clients.Retries, views: views(e) - views0}
}

// openRound runs failover's open loop for the whole window with the crash
// schedule, then drains it and runs its final oracle.
func openRound(w workload, e *env, wal *walPoller, window time.Duration, seed int64) round {
	rec := &recorder{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, lc := range e.clients {
		ol := newOpenLoop(lc, e.long[i], rec)
		e.ol = append(e.ol, ol)
		ol.start(stop, &wg)
	}
	time.Sleep(warmup)
	e.cl.cfg.tr.setTiming(true)
	begin := read(e, wal)
	rec.on.Store(true)
	crashSchedule(e, rec, window, seed)
	rec.on.Store(false)
	end := read(e, wal)
	e.cl.cfg.tr.setTiming(false)
	close(stop)
	wg.Wait()
	if err := w.check(e, rec); err != nil {
		rec.fault(err)
	}
	drained := read(e, nil)
	return round{rec: rec, begin: begin, end: end, resends: drained.resends - begin.resends,
		retries: drained.clients.Retries - begin.clients.Retries}
}

// run measures one workload: closed-loop rounds until their timed parts
// add up to window (at least minRounds), or failover's one round.
func run(w workload, seed int64, window time.Duration, traced bool, cpuprofile string) (*runResult, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	res := &runResult{metrics: map[string]metric{}}
	var rounds []round
	var timed time.Duration
	sum := &traceSums{vc: map[string][2]float64{}}
	for r := 0; timed < window || (!w.openLoop && r < minRounds); r++ {
		t0 := time.Now()
		e, err := setUp(w, seed, r, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		var wal *walPoller
		if tr != nil && e.cl.dataDir != "" {
			wal = startWALPoller(e.cl.dataDir)
		}
		var rd round
		if w.openLoop {
			rd = openRound(w, e, wal, window, seed)
		} else {
			rd = closedRound(w, e, wal)
		}
		if wal != nil {
			wal.close()
		}
		rounds = append(rounds, rd)
		timed += rd.end.at.Sub(rd.begin.at)
		last := timed >= window && (w.openLoop || r+1 >= minRounds)
		if tr != nil {
			sum.add(rd)
			if last {
				sum.extras(e, seed)
			}
		}
		e.close()
		// Collect the round's garbage before the next one allocates, so
		// the peak resident set is one round's, not a GC-timing accident.
		runtime.GC()
	}
	// Set-up is short next to a round and has two modes (a membership
	// round that times out during formation adds about 100 ms), so the
	// run sets up further deployments until setup_s has minSetups samples.
	for len(res.setupS) < minSetups {
		t0 := time.Now()
		e, err := setUp(w, seed, len(res.setupS), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		e.close()
	}
	summarize(res, rounds, sum, tr, w.openLoop)
	return res, nil
}
