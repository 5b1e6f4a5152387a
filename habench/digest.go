package main

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"sync"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/wire"
)

// Req is one load request. Pad is drawn from the run's seed, so two runs
// with the same seed send byte-identical requests.
type Req struct {
	// Seq numbers the session's requests from 1.
	Seq uint64
	// Pad is the request body.
	Pad []byte
}

// WireName implements wire.Message.
func (Req) WireName() string { return "habench.Req" }

// Resp is the primary's answer to a Req: the digest of every request the
// session had applied when it answered.
type Resp struct {
	// Seq is the request answered.
	Seq uint64
	// Prefix is the longest run 1..Prefix of applied requests.
	Prefix uint64
	// Digest is the digest of requests 1..Prefix.
	Digest uint64
	// Extra counts applied requests above Prefix (requests whose
	// predecessors were lost and not yet sent again).
	Extra uint32
}

// WireName implements wire.Message.
func (Resp) WireName() string { return "habench.Resp" }

func init() {
	wire.Register(Req{})
	wire.Register(Resp{})
}

// itemHash is one request's contribution to a session digest.
func itemHash(seq uint64, pad []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	h.Write(pad)
	return h.Sum64()
}

// digestState is the set of requests a session has applied, kept as a
// contiguous prefix plus the applied requests above it. The digest of a
// set is the sum of its members' item hashes, so it does not depend on
// the order requests were applied in, and applying a request twice (a
// resend of a request that had already arrived) changes nothing.
type digestState struct {
	prefix uint64
	sum    uint64
	extra  map[uint64]uint64 // seq → item hash, every seq > prefix+1
}

// apply adds one request to the set.
func (d *digestState) apply(seq, h uint64) {
	if d.has(seq) {
		return
	}
	if d.extra == nil {
		d.extra = make(map[uint64]uint64)
	}
	d.extra[seq] = h
	d.advance()
}

// advance folds extra entries that continue the prefix into it.
func (d *digestState) advance() {
	for {
		h, ok := d.extra[d.prefix+1]
		if !ok {
			return
		}
		delete(d.extra, d.prefix+1)
		d.prefix++
		d.sum += h
	}
}

func (d *digestState) has(seq uint64) bool {
	if seq <= d.prefix {
		return true
	}
	_, ok := d.extra[seq]
	return ok
}

// merge folds another replica's state into d: the union of the two sets.
// Both must describe the same request stream.
func (d *digestState) merge(o digestState) {
	if o.prefix > d.prefix {
		for seq := range d.extra {
			if seq <= o.prefix {
				delete(d.extra, seq)
			}
		}
		d.prefix, d.sum = o.prefix, o.sum
	}
	for seq, h := range o.extra {
		if !d.has(seq) {
			if d.extra == nil {
				d.extra = make(map[uint64]uint64)
			}
			d.extra[seq] = h
		}
	}
	d.advance()
}

// encode is the propagated session context.
func (d *digestState) encode() []byte {
	seqs := make([]uint64, 0, len(d.extra))
	for seq := range d.extra {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	b := make([]byte, 0, 20+16*len(seqs))
	b = binary.LittleEndian.AppendUint64(b, d.prefix)
	b = binary.LittleEndian.AppendUint64(b, d.sum)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(seqs)))
	for _, seq := range seqs {
		b = binary.LittleEndian.AppendUint64(b, seq)
		b = binary.LittleEndian.AppendUint64(b, d.extra[seq])
	}
	return b
}

var errContext = errors.New("habench: malformed session context")

func decodeDigest(b []byte) (digestState, error) {
	var d digestState
	if len(b) == 0 {
		return d, nil
	}
	if len(b) < 20 {
		return d, errContext
	}
	d.prefix = binary.LittleEndian.Uint64(b)
	d.sum = binary.LittleEndian.Uint64(b[8:])
	n := int(binary.LittleEndian.Uint32(b[16:]))
	b = b[20:]
	if len(b) != 16*n {
		return d, errContext
	}
	if n > 0 {
		d.extra = make(map[uint64]uint64, n)
	}
	for i := 0; i < n; i++ {
		d.extra[binary.LittleEndian.Uint64(b[16*i:])] = binary.LittleEndian.Uint64(b[16*i+8:])
	}
	return d, nil
}

// digestService is the benchmark's session service: each session is the
// digest of the requests applied to it, and the primary answers every
// request with that digest.
type digestService struct {
	mu       sync.Mutex
	sessions map[ids.SessionID]*digestSession
}

func newDigestService() *digestService {
	return &digestService{sessions: make(map[ids.SessionID]*digestSession)}
}

// NewSession implements core.Service.
func (s *digestService) NewSession(_ ids.UnitName, sid ids.SessionID, _ ids.ClientID) core.Session {
	ds := &digestSession{svc: s, sid: sid}
	s.mu.Lock()
	s.sessions[sid] = ds
	s.mu.Unlock()
	return ds
}

// state returns a copy of a live session's state at this server.
func (s *digestService) state(sid ids.SessionID) (digestState, bool) {
	s.mu.Lock()
	ds := s.sessions[sid]
	s.mu.Unlock()
	if ds == nil {
		return digestState{}, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st := ds.st
	st.extra = make(map[uint64]uint64, len(ds.st.extra))
	for k, v := range ds.st.extra {
		st.extra[k] = v
	}
	return st, true
}

type digestSession struct {
	svc *digestService
	sid ids.SessionID

	mu sync.Mutex
	st digestState
	r  core.Responder
}

func (s *digestSession) ApplyUpdate(body wire.Message) {
	req, ok := body.(Req)
	if !ok {
		return
	}
	h := itemHash(req.Seq, req.Pad)
	s.mu.Lock()
	s.st.apply(req.Seq, h)
	resp := Resp{Seq: req.Seq, Prefix: s.st.prefix, Digest: s.st.sum, Extra: uint32(len(s.st.extra))}
	r := s.r
	s.mu.Unlock()
	if r != nil {
		r.Send(resp)
	}
}

func (s *digestSession) Activate(r core.Responder) {
	s.mu.Lock()
	s.r = r
	s.mu.Unlock()
}

func (s *digestSession) Deactivate() {
	s.mu.Lock()
	s.r = nil
	s.mu.Unlock()
}

func (s *digestSession) Close() {
	s.Deactivate()
	s.svc.mu.Lock()
	if s.svc.sessions[s.sid] == s {
		delete(s.svc.sessions, s.sid)
	}
	s.svc.mu.Unlock()
}

func (s *digestSession) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.encode()
}

func (s *digestSession) Restore(ctx []byte) {
	d, err := decodeDigest(ctx)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.st = d
	s.mu.Unlock()
}

func (s *digestSession) Sync(ctx []byte) {
	d, err := decodeDigest(ctx)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.st.merge(d)
	s.mu.Unlock()
}
