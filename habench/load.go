package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hafw/internal/core"
	"hafw/internal/wire"
)

// Request sizes and timeouts every workload shares.
const (
	padBytes = 64
	// resendAfter is core.Client's default request timeout: a request
	// with no answer after this long is sent again.
	resendAfter = 300 * time.Millisecond
	// giveUpAfter bounds one operation; an operation still unanswered
	// after this long counts as failed.
	giveUpAfter = 10 * time.Second
)

// splitmix64 is the input generator: every pad byte is a pure function of
// the run's seed, the session's key and the request's sequence number.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func padFor(key, seq uint64) []byte {
	b := make([]byte, padBytes)
	x := splitmix64(key ^ splitmix64(seq))
	for i := 0; i < padBytes; i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// respEvent is one response as the load client's handler saw it.
type respEvent struct {
	ls *loadSession
	r  Resp
	at time.Time
}

// loadSession is one session as a load client sees it, with the digest
// the client computes itself over the requests it sent.
type loadSession struct {
	s    *core.ClientSession
	key  uint64
	resp chan respEvent // answers, unless the client routes them directly

	mu  sync.Mutex
	cum []uint64 // cum[k] is the digest of requests 1..k
}

// next prepares request seq = len(cum): its body, and its place in the
// client's own digest.
func (ls *loadSession) next() Req {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.cum == nil {
		ls.cum = []uint64{0}
	}
	seq := uint64(len(ls.cum))
	pad := padFor(ls.key, seq)
	ls.cum = append(ls.cum, ls.cum[seq-1]+itemHash(seq, pad))
	return Req{Seq: seq, Pad: pad}
}

func (ls *loadSession) sent() uint64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.cum == nil {
		return 0
	}
	return uint64(len(ls.cum) - 1)
}

// digest returns the client's own digest of requests 1..k.
func (ls *loadSession) digest(k uint64) (uint64, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if k >= uint64(len(ls.cum)) {
		return 0, false
	}
	return ls.cum[k], true
}

// check is the digest oracle for one response: the prefix it reports
// must be one the client sent, with the digest the client computed.
func (ls *loadSession) check(r Resp) error {
	want, ok := ls.digest(r.Prefix)
	switch {
	case r.Seq > ls.sent() || r.Seq == 0:
		return fmt.Errorf("session %d: response to request %d, which was never sent", ls.s.ID, r.Seq)
	case !ok:
		return fmt.Errorf("session %d: response reports %d requests applied, only %d sent", ls.s.ID, r.Prefix, ls.sent())
	case r.Digest != want:
		return fmt.Errorf("session %d: digest of requests 1..%d is %x, client computed %x", ls.s.ID, r.Prefix, r.Digest, want)
	}
	return nil
}

// checkState is the oracle for a replica's final state: it must hold
// every request in acked and nothing the client did not send, with the
// client's digest.
func (ls *loadSession) checkState(st digestState, acked func(seq uint64) bool) error {
	want, ok := ls.digest(st.prefix)
	if !ok || st.sum != want {
		return fmt.Errorf("session %d: replica digest of 1..%d does not match the client's", ls.s.ID, st.prefix)
	}
	for seq, h := range st.extra {
		if seq > ls.sent() || h != itemHash(seq, padFor(ls.key, seq)) {
			return fmt.Errorf("session %d: replica holds request %d the client did not send", ls.s.ID, seq)
		}
	}
	for seq := uint64(1); seq <= ls.sent(); seq++ {
		if acked(seq) && !st.has(seq) {
			return fmt.Errorf("session %d: acknowledged request %d missing from a replica", ls.s.ID, seq)
		}
	}
	return nil
}

// loadClient is one framework client of the load: one core.Client, its
// sessions, and the channel its response handler feeds.
type loadClient struct {
	idx  int
	seed uint64
	c    *core.Client
	tr   *tracer
	// direct, when set, receives every answer on the client's delivery
	// goroutine instead of the session's channel (the open loop).
	direct atomic.Pointer[func(respEvent)]

	mu       sync.Mutex
	nextKey  uint64
	sessions []*loadSession
	resends  atomic.Int64
}

func newLoadClient(cl *cluster, idx int, seed uint64) (*loadClient, error) {
	c, err := cl.newClient()
	if err != nil {
		return nil, err
	}
	return &loadClient{idx: idx, seed: seed, c: c, tr: cl.cfg.tr}, nil
}

// open starts a session whose responses reach lc.resp.
func (lc *loadClient) open() (*loadSession, error) {
	lc.mu.Lock()
	lc.nextKey++
	// The buffer holds the answers a closed loop can have in flight on a
	// session: one per request sent, resends included.
	ls := &loadSession{key: splitmix64(lc.seed ^ uint64(lc.idx)<<48 ^ lc.nextKey), resp: make(chan respEvent, 64)}
	lc.mu.Unlock()
	s, err := lc.c.StartSession(benchUnit, func(_ uint64, body wire.Message) {
		r, ok := body.(Resp)
		if !ok {
			return
		}
		ev := respEvent{ls: ls, r: r, at: time.Now()}
		if f := lc.direct.Load(); f != nil {
			(*f)(ev)
			return
		}
		select {
		case ls.resp <- ev:
		default: // dropped; the request is sent again
		}
	})
	if err != nil {
		return nil, err
	}
	ls.s = s
	return ls, nil
}

func (lc *loadClient) send(ls *loadSession, req Req) error {
	return lc.tr.clientSend(ls.s, req)
}

var errGaveUp = errors.New("no response")

// roundTrip sends the session's next request and waits for its answer,
// sending it again every resendAfter. The answer must report exactly the
// requests sent so far, with the client's digest.
func (lc *loadClient) roundTrip(ls *loadSession) (time.Duration, error) {
	req := ls.next()
	t0 := time.Now()
	if err := lc.send(ls, req); err != nil {
		return 0, err
	}
	resend := time.NewTimer(resendAfter)
	defer resend.Stop()
	giveUp := time.NewTimer(giveUpAfter)
	defer giveUp.Stop()
	for {
		select {
		case ev := <-ls.resp:
			if err := ls.check(ev.r); err != nil {
				return 0, &oracleError{err}
			}
			if ev.r.Seq != req.Seq {
				continue // a duplicate answer to an earlier request
			}
			if ev.r.Prefix != req.Seq || ev.r.Extra != 0 {
				return 0, &oracleError{fmt.Errorf("session %d: answer to request %d reports %d applied (+%d)", ls.s.ID, req.Seq, ev.r.Prefix, ev.r.Extra)}
			}
			return ev.at.Sub(t0), nil
		case <-resend.C:
			lc.resends.Add(1)
			if err := lc.send(ls, req); err != nil {
				return 0, err
			}
			resend.Reset(resendAfter)
		case <-giveUp.C:
			return 0, errGaveUp
		}
	}
}

// oracleError marks a wrong answer, as opposed to a missing one.
type oracleError struct{ err error }

func (e *oracleError) Error() string { return e.err.Error() }
