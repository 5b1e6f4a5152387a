package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/ids"
	"hafw/internal/testutil"
)

// recorder collects one round's outcomes.
type recorder struct {
	// on marks the open loop's timed window: requests dispatched while it
	// is set are timed. Closed loops record every operation they are
	// handed.
	on atomic.Bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	reqMS     []float64 // request latency
	startMS   []float64 // session start latency (session)
	gapMS     []float64 // stop → first response, sessions whose primary stopped
	rejoinMS  []float64 // restart → back in the group with agreeing databases
	lateMS    []float64 // open-loop dispatch time − due time
	problems  []string
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fault records an oracle failure.
func (r *recorder) fault(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// outcome records one completed closed-loop operation; req and start are
// its latencies (start < 0 when the operation started no session).
func (r *recorder) outcome(start, req time.Duration, err error) {
	if oe, ok := err.(*oracleError); ok {
		r.fault(oe)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.reqMS = append(r.reqMS, ms(req))
	if start >= 0 {
		r.startMS = append(r.startMS, ms(start))
	}
}

func (r *recorder) add(dst *[]float64, v float64) {
	r.mu.Lock()
	*dst = append(*dst, v)
	r.mu.Unlock()
}

// env is one set-up deployment with its load clients.
type env struct {
	cl      *cluster
	clients []*loadClient
	long    [][]*loadSession // each client's long-lived sessions
	ended   sync.Map         // ids.SessionID → true, sessions the load ended
	ol      []*openLoop      // failover's open-loop generators
}

func (e *env) close() {
	for _, lc := range e.clients {
		_ = lc.c.Close()
	}
	e.cl.close()
}

// workload is one traffic mix against the deployment. A closed-loop
// workload runs in rounds: each round sets up a fresh deployment, runs
// warmOps untimed and then roundOps timed operations on every load
// client, and checks the outcome, so every round starts from the same
// state and does the same work. The open-loop failover workload is one
// round lasting the whole window.
type workload struct {
	cluster clusterConfig
	// clients is the number of load clients, at most the CPU count.
	clients int
	// long is how many long-lived sessions each client opens in set-up.
	long int
	// op runs one closed-loop operation, the n-th of one of the client's
	// lanes: lanes closed loops run side by side on every client.
	op       func(e *env, lc *loadClient, lane, n int) (start, req time.Duration, err error)
	lanes    int
	warmOps  int // per lane
	roundOps int // per lane
	// openLoop selects failover's open loop and crash schedule.
	openLoop bool
	// check is the round's final oracle, run once the load has stopped.
	check func(e *env, rec *recorder) error
}

// quietFD is the failure-detector timeout of the workloads that stop no
// server. With haload's 60 ms, a stall of the host (hypervisor steal,
// another busy process) now and then made a server suspect a live peer,
// and the view changes that followed failed operations and left the
// unit databases disagreeing; those workloads measure a stable view.
const quietFD = time.Second * testutil.TimeScale

var workloads = map[string]workload{
	"request": {
		cluster:  clusterConfig{fdTimeout: quietFD},
		clients:  2,
		long:     4,
		lanes:    4, // one closed loop per long-lived session
		warmOps:  200,
		roundOps: 6000,
		op: func(e *env, lc *loadClient, lane, _ int) (time.Duration, time.Duration, error) {
			lat, err := lc.roundTrip(e.long[lc.idx][lane])
			return -1, lat, err
		},
		check: checkLongContexts,
	},
	"session": {
		cluster:  clusterConfig{durable: true, fdTimeout: quietFD},
		clients:  2,
		lanes:    2,
		warmOps:  25,
		roundOps: 1500,
		op: func(e *env, lc *loadClient, _, _ int) (time.Duration, time.Duration, error) {
			return sessionOp(e, lc)
		},
		check: checkEndedGone,
	},
	"failover": {
		cluster:  clusterConfig{durable: true, latency: time.Millisecond},
		clients:  2,
		long:     12,
		openLoop: true,
		check:    drainAndCheckReplicas,
	},
}

// sessionOp is one session workload operation: start, one request, end.
func sessionOp(e *env, lc *loadClient) (start, req time.Duration, err error) {
	t0 := time.Now()
	ls, err := lc.open()
	if err != nil {
		return 0, 0, err
	}
	start = time.Since(t0)
	req, err = lc.roundTrip(ls)
	if endErr := ls.s.End(); err == nil {
		err = endErr
	}
	if err == nil {
		e.ended.Store(ls.s.ID, true)
	}
	return start, req, err
}

// checkLongContexts is the request workload's final oracle: after the
// load stops, the context every running unit database holds for each
// long-lived session decodes to the client's digest of everything it
// sent.
func checkLongContexts(e *env, rec *recorder) error {
	want := map[ids.SessionID]*loadSession{}
	for _, lss := range e.long {
		for _, ls := range lss {
			want[ls.s.ID] = ls
		}
	}
	var last error
	ok := func() bool {
		for _, s := range e.cl.live() {
			for _, rs := range s.DBSnapshot(benchUnit).Sessions {
				ls := want[rs.ID]
				if ls == nil {
					continue
				}
				st, err := decodeDigest(rs.Context)
				if err != nil {
					last = err
					return false
				}
				if n := ls.sent(); st.prefix != n || len(st.extra) != 0 {
					last = fmt.Errorf("server %d: session %d context holds %d requests, client sent %d", s.Self(), rs.ID, st.prefix, n)
					return false
				}
				if err := ls.checkState(st, func(uint64) bool { return true }); err != nil {
					last = err
					return false
				}
			}
		}
		return true
	}
	if waitFor(5*time.Second, 5*time.Millisecond, ok, "context propagation") != nil {
		return fmt.Errorf("unit database contexts: %v", last)
	}
	return nil
}

// checkEndedGone is the session workload's final oracle: every running
// unit database agrees, and none still holds a session the load ended.
func checkEndedGone(e *env, rec *recorder) error {
	var last error
	ok := func() bool {
		if !e.cl.agreed() {
			last = fmt.Errorf("unit database checksums differ")
			return false
		}
		for _, s := range e.cl.live() {
			for _, rs := range s.DBSnapshot(benchUnit).Sessions {
				if _, ended := e.ended.Load(rs.ID); ended {
					last = fmt.Errorf("server %d still holds ended session %d", s.Self(), rs.ID)
					return false
				}
			}
		}
		return true
	}
	if waitFor(5*time.Second, 5*time.Millisecond, ok, "session table") != nil {
		return fmt.Errorf("session table: %v", last)
	}
	return nil
}

// Failover schedule: open-loop requests on every long-lived session at a
// fixed interval, and one server stop per third of the window.
const (
	openInterval = 25 * time.Millisecond
	downFor      = time.Second
)

// pendingReq is an open-loop request awaiting its answer.
type pendingReq struct {
	due, lastSend time.Time
	req           Req
	inWindow      bool
}

type pendingKey struct {
	ls  *loadSession
	seq uint64
}

// openLoop sends each session's requests on a fixed schedule, whatever
// the cluster's state, and sends again any request unanswered after
// resendAfter.
type openLoop struct {
	lc  *loadClient
	lss []*loadSession
	rec *recorder

	mu      sync.Mutex
	pending map[pendingKey]*pendingReq
	gap     map[*loadSession]time.Time // stop time, until the next answer
}

func newOpenLoop(lc *loadClient, lss []*loadSession, rec *recorder) *openLoop {
	return &openLoop{lc: lc, lss: lss, rec: rec,
		pending: make(map[pendingKey]*pendingReq), gap: make(map[*loadSession]time.Time)}
}

func (o *openLoop) start(stop <-chan struct{}, wg *sync.WaitGroup) {
	// Each session's phase within the interval comes from its key, so
	// the schedule is a function of the seed.
	type slot struct {
		ls    *loadSession
		phase time.Duration
	}
	slots := make([]slot, len(o.lss))
	for i, ls := range o.lss {
		slots[i] = slot{ls, time.Duration(ls.key % uint64(openInterval))}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].phase < slots[j].phase })
	answer := o.answer
	o.lc.direct.Store(&answer)
	wg.Add(2)
	go func() {
		defer wg.Done()
		base := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for round := 0; ; round++ {
			for _, sl := range slots {
				due := base.Add(time.Duration(round)*openInterval + sl.phase)
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(time.Until(due))
				select {
				case <-stop:
					return
				case <-timer.C:
				}
				o.dispatch(sl.ls, due)
			}
		}
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				o.resendDue()
			}
		}
	}()
}

func (o *openLoop) dispatch(ls *loadSession, due time.Time) {
	req := ls.next()
	now := time.Now()
	p := &pendingReq{due: due, lastSend: now, req: req, inWindow: o.rec.on.Load()}
	o.mu.Lock()
	o.pending[pendingKey{ls, req.Seq}] = p
	o.mu.Unlock()
	if p.inWindow {
		o.rec.mu.Lock()
		o.rec.attempted++
		o.rec.mu.Unlock()
		o.rec.add(&o.rec.lateMS, ms(now.Sub(due)))
	}
	go func() { _ = o.lc.send(ls, req) }()
}

func (o *openLoop) resendDue() {
	now := time.Now()
	o.mu.Lock()
	var again []pendingKey
	for k, p := range o.pending {
		if now.Sub(p.lastSend) >= resendAfter {
			p.lastSend = now
			again = append(again, k)
		}
	}
	reqs := make([]Req, len(again))
	for i, k := range again {
		reqs[i] = o.pending[k].req
	}
	o.mu.Unlock()
	for i, k := range again {
		o.lc.resends.Add(1)
		ls, req := k.ls, reqs[i]
		go func() { _ = o.lc.send(ls, req) }()
	}
}

func (o *openLoop) answer(ev respEvent) {
	if err := ev.ls.check(ev.r); err != nil {
		o.rec.fault(err)
		return
	}
	o.mu.Lock()
	k := pendingKey{ev.ls, ev.r.Seq}
	p := o.pending[k]
	delete(o.pending, k)
	stopAt, watching := o.gap[ev.ls]
	if watching && ev.at.After(stopAt) {
		delete(o.gap, ev.ls)
	}
	o.mu.Unlock()
	if p != nil && p.inWindow {
		o.rec.add(&o.rec.reqMS, ms(ev.at.Sub(p.due)))
	}
	if watching && ev.at.After(stopAt) {
		o.rec.add(&o.rec.gapMS, ms(ev.at.Sub(stopAt)))
	}
}

// watch starts timing the gap of every session whose primary is victim.
func (o *openLoop) watch(victim ids.ProcessID, primaries map[ids.SessionID]ids.ProcessID, at time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ls := range o.lss {
		if primaries[ls.s.ID] == victim {
			o.gap[ls] = at
		}
	}
}

// outstanding counts unanswered requests.
func (o *openLoop) outstanding() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}

// crashSchedule stops every server once per window, in an order drawn
// from the seed, and restarts it from its data directory downFor later.
// Each of the three stops opens a third of the window.
func crashSchedule(e *env, rec *recorder, window time.Duration, seed int64) {
	begin := time.Now()
	third := window / 3
	down := downFor
	if down > third/2 {
		down = third / 2
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(e.cl.pids))
	for k, idx := range order {
		victim := e.cl.pids[idx]
		time.Sleep(time.Until(begin.Add(time.Duration(k)*third + third/4)))
		primaries := map[ids.SessionID]ids.ProcessID{}
		for _, lss := range e.long {
			for _, ls := range lss {
				primaries[ls.s.ID] = e.cl.primaryOf(ls.s.ID)
			}
		}
		stopAt := time.Now()
		for _, ol := range e.ol {
			ol.watch(victim, primaries, stopAt)
		}
		e.cl.stop(victim)
		if e.cl.cfg.tr != nil {
			e.cl.cfg.tr.timeRecover(e.cl, victim)
		}
		time.Sleep(time.Until(stopAt.Add(down)))
		t0 := time.Now()
		if err := e.cl.restart(victim); err != nil {
			rec.fault(fmt.Errorf("restart server %d: %w", victim, err))
			return
		}
		if err := waitFor(10*time.Second, time.Millisecond, e.cl.agreed, "rejoin"); err != nil {
			rec.fault(fmt.Errorf("server %d: %w", victim, err))
			return
		}
		rec.add(&rec.rejoinMS, ms(time.Since(t0)))
	}
	time.Sleep(time.Until(begin.Add(window)))
}

// drainAndCheckReplicas is the failover workload's final oracle: once
// every request has been answered (or given up on), the primary and the
// backup of every session hold every acknowledged request.
func drainAndCheckReplicas(e *env, rec *recorder) error {
	deadline := time.Now().Add(giveUpAfter)
	for _, ol := range e.ol {
		for ol.outstanding() > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			ol.resendDue()
		}
	}
	unacked := map[pendingKey]bool{}
	stuck := map[ids.SessionID]int{}
	for _, ol := range e.ol {
		ol.mu.Lock()
		for k, p := range ol.pending {
			unacked[k] = true
			stuck[k.ls.s.ID]++
			if p.inWindow {
				rec.mu.Lock()
				rec.failed++
				rec.mu.Unlock()
			}
		}
		ol.mu.Unlock()
	}
	for sid, n := range stuck {
		var where []string
		for _, s := range e.cl.live() {
			for _, rs := range s.DBSnapshot(benchUnit).Sessions {
				if rs.ID == sid {
					_, held := e.cl.service(s.Self()).state(sid)
					where = append(where, fmt.Sprintf("server %d: primary %d backups %v holds %v", s.Self(), rs.Primary, rs.Backups, held))
				}
			}
		}
		rec.fault(fmt.Errorf("session %d: %d requests unanswered after %v (%s)", sid, n, giveUpAfter, strings.Join(where, "; ")))
	}
	if err := waitFor(10*time.Second, 5*time.Millisecond, e.cl.agreed, "final agreement"); err != nil {
		return err
	}
	long := map[ids.SessionID]*loadSession{}
	for _, lss := range e.long {
		for _, ls := range lss {
			long[ls.s.ID] = ls
		}
	}
	var last error
	ok := func() bool {
		db := e.cl.live()[0].DBSnapshot(benchUnit)
		for _, rs := range db.Sessions {
			ls := long[rs.ID]
			if ls == nil {
				continue
			}
			for _, pid := range append([]ids.ProcessID{rs.Primary}, rs.Backups...) {
				svc := e.cl.service(pid)
				if svc == nil {
					last = fmt.Errorf("session %d: replica %d is not running", rs.ID, pid)
					return false
				}
				st, held := svc.state(rs.ID)
				if !held {
					last = fmt.Errorf("session %d: replica %d holds no state", rs.ID, pid)
					return false
				}
				acked := func(seq uint64) bool { return !unacked[pendingKey{ls, seq}] }
				if err := ls.checkState(st, acked); err != nil {
					last = fmt.Errorf("replica %d: %w", pid, err)
					return false
				}
			}
		}
		return true
	}
	if waitFor(5*time.Second, 5*time.Millisecond, ok, "replica state") != nil {
		return fmt.Errorf("replica state: %v", last)
	}
	return nil
}
