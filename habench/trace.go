package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/store"
	"hafw/internal/transport"
	"hafw/internal/transport/memnet"
	"hafw/internal/unitdb"
	"hafw/internal/wire"
)

// layers are the packages messages are attributed to, by the prefix of
// their wire name ("vsync.Data" belongs to vsync).
var layers = []string{"fd", "membership", "vsync", "core", "other"}

func layerOf(name string) int {
	if i := strings.IndexByte(name, '.'); i > 0 {
		name = name[:i]
	}
	for i, l := range layers[:len(layers)-1] {
		if l == name {
			return i
		}
	}
	return len(layers) - 1
}

// tracer wraps the public seams of each layer from outside the program:
// every endpoint's transport.Transport (Send, and the handler passed to
// SetHandler), every core.Service/Session, and the workloads' core.Client
// calls. Its counters are cumulative; a run reads them at the start and
// end of the timed window and reports the difference.
type tracer struct {
	sendNS   atomic.Int64
	sendMsgs [5]atomic.Int64
	handleNS [5]atomic.Int64 // servers' delivery handlers only
	applyNS  atomic.Int64
	snaps    atomic.Int64
	snapB    atomic.Int64

	mu        sync.Mutex
	epRegs    []*metrics.Registry // memnet's own per-type byte counters
	clientUS  []float64           // time inside ClientSession.Send
	timing    bool                // record clientUS (only inside the window)
	recoverMS []float64           // store.Recover on stopped servers' directories
}

// traceCounts is one reading of the tracer's counters.
type traceCounts struct {
	sendNS, applyNS, snaps, snapB int64
	sendMsgs, handleNS, sendBytes [5]int64
}

func (t *tracer) read() traceCounts {
	var c traceCounts
	c.sendNS, c.applyNS = t.sendNS.Load(), t.applyNS.Load()
	c.snaps, c.snapB = t.snaps.Load(), t.snapB.Load()
	for i := range layers {
		c.sendMsgs[i], c.handleNS[i] = t.sendMsgs[i].Load(), t.handleNS[i].Load()
	}
	t.mu.Lock()
	regs := append([]*metrics.Registry(nil), t.epRegs...)
	t.mu.Unlock()
	const prefix = `transport_send_bytes_total{type="`
	for _, reg := range regs {
		for name, v := range reg.Counters() {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			typ := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
			c.sendBytes[layerOf(typ)] += int64(v)
		}
	}
	return c
}

func (c traceCounts) plus(o traceCounts) traceCounts {
	d := traceCounts{sendNS: c.sendNS + o.sendNS, applyNS: c.applyNS + o.applyNS,
		snaps: c.snaps + o.snaps, snapB: c.snapB + o.snapB}
	for i := range layers {
		d.sendMsgs[i] = c.sendMsgs[i] + o.sendMsgs[i]
		d.handleNS[i] = c.handleNS[i] + o.handleNS[i]
		d.sendBytes[i] = c.sendBytes[i] + o.sendBytes[i]
	}
	return d
}

func (c traceCounts) sub(o traceCounts) traceCounts {
	d := traceCounts{sendNS: c.sendNS - o.sendNS, applyNS: c.applyNS - o.applyNS,
		snaps: c.snaps - o.snaps, snapB: c.snapB - o.snapB}
	for i := range layers {
		d.sendMsgs[i] = c.sendMsgs[i] - o.sendMsgs[i]
		d.handleNS[i] = c.handleNS[i] - o.handleNS[i]
		d.sendBytes[i] = c.sendBytes[i] - o.sendBytes[i]
	}
	return d
}

// setTiming turns recording of client Send times on or off.
func (t *tracer) setTiming(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timing = on
	t.mu.Unlock()
}

// clientSend calls s.Send, recording its duration when the window is open.
func (t *tracer) clientSend(s *core.ClientSession, body wire.Message) error {
	if t == nil {
		return s.Send(body)
	}
	t0 := time.Now()
	err := s.Send(body)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	if t.timing {
		t.clientUS = append(t.clientUS, us)
	}
	t.mu.Unlock()
	return err
}

func (t *tracer) recoverTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.recoverMS...)
}

func (t *tracer) sendTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.clientUS...)
}

func (t *tracer) wrapTransport(ep *memnet.Endpoint, server bool) transport.Transport {
	reg := metrics.NewRegistry()
	ep.SetMetrics(reg)
	t.mu.Lock()
	t.epRegs = append(t.epRegs, reg)
	t.mu.Unlock()
	return &tracedTransport{Transport: ep, t: t, server: server}
}

type tracedTransport struct {
	transport.Transport
	t      *tracer
	server bool
}

func (tt *tracedTransport) Send(to ids.EndpointID, m wire.Message) error {
	t0 := time.Now()
	err := tt.Transport.Send(to, m)
	tt.t.sendNS.Add(int64(time.Since(t0)))
	tt.t.sendMsgs[layerOf(m.WireName())].Add(1)
	return err
}

func (tt *tracedTransport) SetHandler(h transport.Handler) {
	if h == nil || !tt.server {
		tt.Transport.SetHandler(h)
		return
	}
	tt.Transport.SetHandler(func(env wire.Envelope) {
		t0 := time.Now()
		h(env)
		tt.t.handleNS[layerOf(env.Payload.WireName())].Add(int64(time.Since(t0)))
	})
}

func (t *tracer) wrapService(s core.Service) core.Service { return &tracedService{inner: s, t: t} }

type tracedService struct {
	inner core.Service
	t     *tracer
}

func (s *tracedService) NewSession(unit ids.UnitName, sid ids.SessionID, client ids.ClientID) core.Session {
	return &tracedSession{Session: s.inner.NewSession(unit, sid, client), t: s.t}
}

type tracedSession struct {
	core.Session
	t *tracer
}

func (s *tracedSession) ApplyUpdate(body wire.Message) {
	t0 := time.Now()
	s.Session.ApplyUpdate(body)
	s.t.applyNS.Add(int64(time.Since(t0)))
}

func (s *tracedSession) Snapshot() []byte {
	b := s.Session.Snapshot()
	s.t.snaps.Add(1)
	s.t.snapB.Add(int64(len(b)))
	return b
}

// timeRecover times store.Recover on a stopped server's data directory.
func (t *tracer) timeRecover(cl *cluster, pid ids.ProcessID) {
	t0 := time.Now()
	if _, _, err := store.Recover(filepath.Join(cl.serverDir(pid), string(benchUnit)), benchUnit); err != nil {
		return
	}
	t.mu.Lock()
	t.recoverMS = append(t.recoverMS, ms(time.Since(t0)))
	t.mu.Unlock()
}

// walPoller tracks the bytes appended to every WAL segment under dir by
// polling segment sizes; a segment's size only grows until a checkpoint
// deletes it.
type walPoller struct {
	dir  string
	mu   sync.Mutex
	max  map[string]int64
	stop chan struct{}
	done chan struct{}
}

func startWALPoller(dir string) *walPoller {
	p := &walPoller{dir: dir, max: map[string]int64{}, stop: make(chan struct{}), done: make(chan struct{})}
	p.poll()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.poll()
				return
			case <-tick.C:
				p.poll()
			}
		}
	}()
	return p
}

func (p *walPoller) poll() {
	segs, _ := filepath.Glob(filepath.Join(p.dir, "p*", "*", "wal-*.log"))
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil && fi.Size() > p.max[seg] {
			p.max[seg] = fi.Size()
		}
	}
}

// total is the bytes seen appended so far.
func (p *walPoller) total() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, v := range p.max {
		n += v
	}
	return n
}

func (p *walPoller) close() {
	close(p.stop)
	<-p.done
}

// measureClone times wire's public clone and encode on the envelope a
// load client sends for one request.
func measureClone(env wire.Envelope) (cloneUS, allocs float64, encBytes int) {
	const n = 2000
	b, err := wire.Encode(env)
	if err != nil {
		return 0, 0, 0
	}
	encBytes = len(b)
	times := make([]float64, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, _, err := wire.CloneEnvelope(env); err != nil {
			return 0, 0, 0
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&after)
	// The times slice was allocated before the first reading.
	return median(times), float64(after.Mallocs-before.Mallocs) / n, encBytes
}

// measureAllocate times unitdb's DB.Allocate on a copy of a running
// server's unit database: each call allocates one fresh session, which
// is then removed, so the live session table stays the one the workload
// built.
func measureAllocate(snap unitdb.Snapshot, members []ids.ProcessID) float64 {
	const n = 500
	db := unitdb.New(benchUnit)
	db.Restore(snap)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := db.CreateSession(ids.ClientID(9000 + i))
		t0 := time.Now()
		db.Allocate(s.ID, members, numBackups)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		db.Remove(s.ID)
	}
	return median(times)
}
