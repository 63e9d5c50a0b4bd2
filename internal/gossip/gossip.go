// Package gossip implements the paper's mixed gossip protocol (Section
// III.B): an epidemic protocol that disseminates per-node state records
// (capacity c_i and total load l_i) with fan-out log2(n) and a bounded TTL,
// plus an aggregation protocol (push-pull averaging, Jelasity et al.) that
// estimates the system-wide average node capacity and average bandwidth
// every node needs to price RPMs.
//
// Neighbors are re-drawn uniformly at random every cycle, the idealized
// behaviour of the Newscast peer-sampling model the paper cites. Each node's
// resource set RSS is a freshness-bounded cache whose capacity is
// O(log2(n)), reproducing Fig. 11(a)'s bounded "acquaintance" count.
//
// Each node's cache is a slice kept in eviction order - freshest first
// (timestamp descending, then origin descending) - plus the node's own
// record held apart. The capacity bound drops the stalest records, so in
// this order eviction is truncation: a push merges two already-ordered
// lists and stops once the cache is full, never writing a record it would
// then delete, and expired records sit at the tail where it never reads.
// The RSS bound keeps every list at O(log n) records, so ordered slices
// beat maps by a wide margin in the simulator's hottest loop.
package gossip

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
)

// StateRecord is one node's advertised state as seen by another node.
type StateRecord struct {
	Node        int
	Capacity    float64 // MIPS
	TotalLoadMI float64 // l_i: queued + running load
	Timestamp   float64 // simulated time the record was minted at the origin
	TTL         int     // remaining forwarding hops
}

// NodeState is the live local state the protocol reads from the grid layer
// at every cycle.
type NodeState struct {
	Capacity        float64
	TotalLoadMI     float64
	Alive           bool
	AvgBandwidthObs float64 // node's local observation of typical bandwidth
}

// LocalState is implemented by the grid runtime.
type LocalState interface {
	Snapshot(node int) NodeState
}

// Config tunes the protocol. Zero values select the paper's setting.
type Config struct {
	N             int
	CycleSeconds  float64 // gossip cycle, default 300 s (five minutes)
	TTL           int     // max hops, default 4
	FanOut        int     // push fan-out, default log2(n)
	CacheCapacity int     // RSS bound, default 3*log2(n)
	ExpiryCycles  float64 // drop records older than this many cycles, default 4
	EpochCycles   int     // aggregation restart period, default 8
	Seed          int64

	// Workers spreads each cycle's push work over this many goroutines
	// using the deterministic dependency-ordered executor in parallel.go.
	// Values <= 1 keep the fully serial loop. Every worker count produces
	// bit-identical caches, estimates and traffic counters: the parallel
	// path replays the exact serial per-node operation order.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.CycleSeconds == 0 {
		c.CycleSeconds = 300
	}
	if c.TTL == 0 {
		c.TTL = 4
	}
	if c.FanOut == 0 {
		c.FanOut = max(1, stats.Log2Ceil(c.N))
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = max(4, 3*stats.Log2Ceil(c.N))
	}
	if c.ExpiryCycles == 0 {
		c.ExpiryCycles = 4
	}
	if c.EpochCycles == 0 {
		c.EpochCycles = 8
	}
	return c
}

// idleMemo caches one IdleKnown answer per node. A cached count stays valid
// while the simulated clock and the cache version are unchanged: expiry
// depends only on the clock, and every mutation bumps the version. Metric
// snapshots that sample many statistics at one instant hit the memo after
// the first count of a gossip cycle.
type idleMemo struct {
	at      float64
	version uint32
	count   int
	valid   bool
}

// Clock is the engine surface the protocol needs: the simulated time and
// periodic scheduling on the GLOBAL event lane. Both sim.Engine and
// sim.ShardedEngine satisfy it (a gossip cycle is one global event; its
// internal parallelism is the protocol's own, see Config.Workers).
type Clock interface {
	Now() float64
	Every(start, period float64, fn sim.Event) *sim.Ticker
}

// Protocol simulates the mixed gossip protocol for all n nodes on one
// deterministic event engine.
type Protocol struct {
	cfg    Config
	engine Clock
	local  LocalState
	rng    *rand.Rand

	// cache[i] holds node i's records about OTHER origins, at most one per
	// origin, in eviction order: timestamp descending, then origin
	// descending. own[i] is node i's record about itself when hasOwn[i];
	// it is never evicted but takes one of the CacheCapacity slots. All n
	// slices, and the spare slot each sender writes a push into, have
	// capacity CacheCapacity, so a push never allocates.
	cache     [][]StateRecord
	own       []StateRecord
	hasOwn    []bool
	version   []uint32   // bumped on every mutation of node i's records
	idle      []idleMemo // per-node IdleKnown memo
	sampleBuf []int      // reused by the cycle's neighbor draws
	send      *sender    // the serial cycle's outgoing-message scratch

	// Aggregation state (push-pull averaging with epoch restarts).
	estCap     []float64 // in-progress capacity estimate
	estBW      []float64
	reportCap  []float64 // last converged (previous epoch) values
	reportBW   []float64
	cycleCount int

	// par holds the parallel-cycle executor's reusable state (op lists,
	// progress counters, per-worker scratch); nil until the first parallel
	// cycle. See parallel.go.
	par *parallelCycle

	// MessagesSent counts epidemic pushes plus aggregation exchanges, and
	// BytesSent the corresponding traffic under the paper's cost model
	// (Section IV.A: "each message carries about 80 bytes data payload and
	// 20 bytes header information"). One epidemic push carries one record;
	// a full cache push therefore costs one message per record, matching
	// the paper's per-neighbor accounting.
	MessagesSent uint64
	BytesSent    uint64
}

// Per-message cost model from Section IV.A.
const (
	MessagePayloadBytes = 80
	MessageHeaderBytes  = 20
	MessageBytes        = MessagePayloadBytes + MessageHeaderBytes
)

// New wires the protocol onto the engine. Call Start to begin cycling.
func New(engine Clock, cfg Config, local LocalState) (*Protocol, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("gossip: need positive N, got %d", cfg.N)
	}
	if local == nil {
		return nil, fmt.Errorf("gossip: nil LocalState")
	}
	p := &Protocol{
		cfg:       cfg,
		engine:    engine,
		local:     local,
		rng:       stats.NewRand(cfg.Seed, 0xC3),
		sampleBuf: make([]int, 0, cfg.FanOut),
		estCap:    make([]float64, cfg.N),
		estBW:     make([]float64, cfg.N),
		reportCap: make([]float64, cfg.N),
		reportBW:  make([]float64, cfg.N),
	}
	p.allocCaches()
	for i := 0; i < cfg.N; i++ {
		s := local.Snapshot(i)
		p.estCap[i], p.estBW[i] = s.Capacity, s.AvgBandwidthObs
		p.reportCap[i], p.reportBW[i] = s.Capacity, s.AvgBandwidthObs
	}
	return p, nil
}

// allocCaches lays out the per-node record storage for cfg.N nodes: one
// backing array of CacheCapacity records per node, the own-record arrays
// and the serial cycle's sender scratch.
func (p *Protocol) allocCaches() {
	n, stride := p.cfg.N, p.cfg.CacheCapacity
	backing := make([]StateRecord, n*stride)
	p.cache = make([][]StateRecord, n)
	for i := range p.cache {
		p.cache[i] = backing[i*stride : i*stride : (i+1)*stride]
	}
	p.own = make([]StateRecord, n)
	p.hasOwn = make([]bool, n)
	p.version = make([]uint32, n)
	p.idle = make([]idleMemo, n)
	p.send = newSender(n, stride)
}

// Config returns the effective (defaulted) configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Start schedules the periodic cycle. A small deterministic per-node jitter
// spreads work inside each cycle as real gossip clocks would.
func (p *Protocol) Start(at float64) {
	p.engine.Every(at, p.cfg.CycleSeconds, func(now float64) { p.cycle(now) })
}

// cycle runs one gossip round for every alive node.
func (p *Protocol) cycle(now float64) {
	p.cycleCount++
	// Epoch restart must complete for ALL nodes before any exchange this
	// cycle, otherwise a restarted node averaging with a not-yet-restarted
	// one mixes epochs and destroys sum conservation.
	if p.cycleCount%p.cfg.EpochCycles == 1 || p.cfg.EpochCycles == 1 {
		for i := 0; i < p.cfg.N; i++ {
			s := p.local.Snapshot(i)
			if !s.Alive {
				continue
			}
			p.reportCap[i], p.reportBW[i] = p.estCap[i], p.estBW[i]
			p.estCap[i], p.estBW[i] = s.Capacity, s.AvgBandwidthObs
		}
	}
	if p.cfg.Workers > 1 {
		p.cycleParallel(now)
		return
	}
	for i := 0; i < p.cfg.N; i++ {
		s := p.local.Snapshot(i)
		if !s.Alive {
			continue
		}
		// Refresh own record and push to fan-out random targets.
		p.mergeOwn(i, StateRecord{
			Node: i, Capacity: s.Capacity, TotalLoadMI: s.TotalLoadMI,
			Timestamp: now, TTL: p.cfg.TTL,
		}, now)
		p.compose(p.send, i, now)
		targets := stats.SampleWithoutInto(p.rng, p.cfg.N, p.cfg.FanOut, i, p.sampleBuf)
		for _, t := range targets {
			if !p.local.Snapshot(t).Alive {
				continue
			}
			p.push(p.send, t, now)
		}
		// Aggregation: one push-pull averaging exchange (reusing the sample
		// buffer is safe: the fan-out targets above were fully consumed).
		partner := stats.SampleWithoutInto(p.rng, p.cfg.N, 1, i, p.sampleBuf)
		if len(partner) == 1 && p.local.Snapshot(partner[0]).Alive {
			j := partner[0]
			avgC := (p.estCap[i] + p.estCap[j]) / 2
			avgB := (p.estBW[i] + p.estBW[j]) / 2
			p.estCap[i], p.estCap[j] = avgC, avgC
			p.estBW[i], p.estBW[j] = avgB, avgB
			p.MessagesSent++
			p.BytesSent += 2 * MessageBytes // push and pull
		}
	}
	p.send.reset()
}

// sender is one gossip turn's outgoing message plus the scratch its
// pushes share. Pushes write only the receivers' records, so the sender's
// records cannot change during its turn: compose builds the message once
// and all fan-out pushes deliver it. The serial cycle owns one
// sender; each parallel worker owns another.
type sender struct {
	// msg is what one push carries: the sender's records with hops left,
	// TTL already decremented, expired ones dropped, in eviction order
	// with the sender's own record at its place.
	msg []StateRecord
	// bytes is the traffic one push costs. Every record with hops left
	// is sent, so expired ones count too.
	bytes uint64
	// pos[origin] is 1 + the index of origin's record in msg, 0 if msg
	// carries none. compose sets it and reset clears it, so it is all
	// zero between turns.
	pos []int32
	// lost[k] == pushes: a receiver's copy beat msg[k] in that push.
	lost   []uint32
	pushes uint32
	// spare is an empty slot of capacity CacheCapacity. A push writes the
	// receiver's new list into it and takes the old list as the next spare.
	spare []StateRecord
}

func newSender(n, stride int) *sender {
	return &sender{
		msg:   make([]StateRecord, 0, stride+1),
		pos:   make([]int32, n),
		lost:  make([]uint32, 0, stride+1),
		spare: make([]StateRecord, 0, stride),
	}
}

// reset drops the composed message and clears its pos entries.
func (s *sender) reset() {
	for _, rec := range s.msg {
		s.pos[rec.Node] = 0
	}
	s.msg, s.bytes, s.pushes = s.msg[:0], 0, 0
}

// add appends one of the sender's records to the message.
func (s *sender) add(rec StateRecord, now, expiry float64) {
	if rec.TTL <= 0 {
		return
	}
	s.bytes += MessageBytes
	rec.TTL--
	if now-rec.Timestamp <= expiry {
		s.msg = append(s.msg, rec)
		s.pos[rec.Node] = int32(len(s.msg))
	}
}

// compose builds node from's outgoing message for the current turn into
// s, replacing the previous one.
func (p *Protocol) compose(s *sender, from int, now float64) {
	s.reset()
	expiry := p.expirySeconds()
	own, hasOwn := p.own[from], p.hasOwn[from]
	for _, rec := range p.cache[from] {
		if hasOwn && ahead(&own, &rec) {
			s.add(own, now, expiry)
			hasOwn = false
		}
		s.add(rec, now, expiry)
	}
	if hasOwn {
		s.add(own, now, expiry)
	}
	s.lost = slices.Grow(s.lost[:0], len(s.msg))[:len(s.msg)]
	clear(s.lost)
}

// push sends the composed message to node to.
func (p *Protocol) push(s *sender, to int, now float64) {
	p.MessagesSent++
	p.BytesSent += s.bytes
	p.deliver(s, to, now)
}

// deliver merges the composed message into node to's records. Per origin
// the fresher copy survives if it has not expired; then the stalest
// records beyond the capacity go (ties to the lowest origin), never the
// receiver's own record, which still takes one slot. Message and cache
// are both in eviction order, so this is one ordered merge that stops once
// the cache is full: the victims and the receiver's expired records (its
// tail) are never read. The cycle never pushes a node to itself.
func (p *Protocol) deliver(s *sender, to int, now float64) {
	expiry := p.expirySeconds()
	s.pushes++
	own, hasOwn := p.own[to], p.hasOwn[to] && now-p.own[to].Timestamp <= expiry
	if k := s.pos[to]; k > 0 && (!hasOwn || fresher(&s.msg[k-1], &own)) {
		own, hasOwn = s.msg[k-1], true
	}
	limit := p.cfg.CacheCapacity
	if hasOwn {
		limit--
	}
	msg, dst, out := s.msg, p.cache[to], s.spare[:cap(s.spare)]
	n, mi, di := 0, 0, s.live(dst, 0, now, expiry)
merge:
	for ; n < limit; n++ {
		for mi < len(msg) && (msg[mi].Node == to || s.lost[mi] == s.pushes) {
			mi++
		}
		switch {
		case mi < len(msg) && (di == len(dst) || ahead(&msg[mi], &dst[di])):
			out[n] = msg[mi]
			mi++
		case di < len(dst):
			out[n] = dst[di]
			di = s.live(dst, di+1, now, expiry)
		default:
			break merge
		}
	}
	p.cache[to], s.spare = out[:n], dst[:0]
	p.own[to], p.hasOwn[to] = own, hasOwn
	p.version[to]++
}

// live returns the index of the first receiver record at or after di that
// is neither expired nor superseded by the message, len(dst) if none is.
// A receiver record that beats the message's copy of its origin marks that
// copy lost; the record comes first in the merge, so the mark is set
// before the copy is reached. Every message record is fresh, and so is any
// receiver copy at least as fresh, so the first expired receiver record
// ends the receiver's side.
func (s *sender) live(dst []StateRecord, di int, now, expiry float64) int {
	for ; di < len(dst); di++ {
		if now-dst[di].Timestamp > expiry {
			return len(dst)
		}
		k := s.pos[dst[di].Node]
		if k == 0 {
			return di
		}
		if !fresher(&s.msg[k-1], &dst[di]) {
			s.lost[k-1] = s.pushes
			return di
		}
	}
	return di
}

// ahead reports whether record a comes before record b in eviction order:
// the later mint first, and among equal mints the higher origin. Eviction
// drops records from the end of this order.
func ahead(a, b *StateRecord) bool {
	return a.Timestamp > b.Timestamp ||
		(a.Timestamp == b.Timestamp && a.Node > b.Node)
}

// fresher reports whether record a supersedes record b about the same
// origin: a later mint time wins, and among equal mints the copy with more
// forwarding hops left.
func fresher(a, b *StateRecord) bool {
	return a.Timestamp > b.Timestamp ||
		(a.Timestamp == b.Timestamp && a.TTL > b.TTL)
}

// mergeOwn installs node at's freshly minted own record unless it expired
// or the record held is at least as fresh.
func (p *Protocol) mergeOwn(at int, rec StateRecord, now float64) {
	if now-rec.Timestamp > p.expirySeconds() || (p.hasOwn[at] && !fresher(&rec, &p.own[at])) {
		return
	}
	p.own[at], p.hasOwn[at] = rec, true
	p.version[at]++
}

// record returns viewer's record about origin, nil if it holds none.
func (p *Protocol) record(viewer, origin int) *StateRecord {
	if origin == viewer {
		if p.hasOwn[viewer] {
			return &p.own[viewer]
		}
		return nil
	}
	recs := p.cache[viewer]
	for i := range recs {
		if recs[i].Node == origin {
			return &recs[i]
		}
	}
	return nil
}

// fresh returns the records about other origins in node's cache that have
// not expired: a prefix, since expired records sit at the tail.
func (p *Protocol) fresh(node int) []StateRecord {
	now, expiry := p.engine.Now(), p.expirySeconds()
	recs := p.cache[node]
	for i := range recs {
		if now-recs[i].Timestamp > expiry {
			return recs[:i]
		}
	}
	return recs
}

func (p *Protocol) expirySeconds() float64 {
	return p.cfg.ExpiryCycles * p.cfg.CycleSeconds
}

// AppendRSS appends node's current resource set - fresh records about OTHER
// nodes, in ascending origin order - to buf and returns the extended slice.
// Callers on the scheduling hot path pass a reused buffer (sliced to zero
// length) to keep the per-round view allocation-free. The cache is kept in
// eviction order, so the records are insertion-sorted by origin into buf.
func (p *Protocol) AppendRSS(node int, buf []StateRecord) []StateRecord {
	start := len(buf)
	for _, rec := range p.fresh(node) {
		buf = append(buf, rec)
		j := len(buf) - 1
		for ; j > start && buf[j-1].Node > rec.Node; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = rec
	}
	return buf
}

// RSS returns node's current resource set in a fresh slice. This is the
// RSS(p_s) the first-phase scheduler iterates over; hot-path callers should
// prefer AppendRSS with a reused buffer.
func (p *Protocol) RSS(node int) []StateRecord {
	return p.AppendRSS(node, make([]StateRecord, 0, len(p.cache[node])))
}

// RSSSize returns |RSS(node)| without materializing records.
func (p *Protocol) RSSSize(node int) int { return len(p.fresh(node)) }

// IdleKnown counts RSS entries advertising an empty queue, Fig. 11(a)'s
// "number of idle-nodes known by each node". The count is memoized per
// (clock, cache-version) pair, so repeated queries within one gossip cycle
// - metric snapshots, scheduler probes - cost O(1) after the first.
func (p *Protocol) IdleKnown(node int) int {
	now := p.engine.Now()
	memo := &p.idle[node]
	if memo.valid && memo.at == now && memo.version == p.version[node] {
		return memo.count
	}
	n := 0
	for _, rec := range p.fresh(node) {
		if rec.TotalLoadMI == 0 {
			n++
		}
	}
	*memo = idleMemo{at: now, version: p.version[node], count: n, valid: true}
	return n
}

// Averages returns node's current estimate of the system-wide average
// capacity (MIPS) and average bandwidth (Mb/s) from the aggregation
// protocol. The estimates are plain per-node array reads refreshed once per
// epoch by the cycle loop, so the accessor is already O(1) per call.
func (p *Protocol) Averages(node int) (avgCapacity, avgBandwidth float64) {
	return p.reportCap[node], p.reportBW[node]
}

// MeanRecordAge returns the average staleness (seconds since minting) of
// node's fresh RSS records - the information-quality metric behind the
// scheduler's estimation error under churn. Returns 0 for an empty view.
// The ages are summed in ascending origin order, each step selecting the
// next origin, so the float sum does not depend on the cache's order.
func (p *Protocol) MeanRecordAge(node int) float64 {
	now := p.engine.Now()
	recs := p.fresh(node)
	if len(recs) == 0 {
		return 0
	}
	var sum float64
	prev := -1
	for range recs {
		next := -1
		for i := range recs {
			if o := recs[i].Node; o > prev && (next < 0 || o < recs[next].Node) {
				next = i
			}
		}
		sum += now - recs[next].Timestamp
		prev = recs[next].Node
	}
	return sum / float64(len(recs))
}

// RecordAge returns the staleness (seconds since minting) of viewer's
// cached record about origin, ok=false when viewer holds no fresh record
// (never received one, or it expired). This is the per-decision
// counterpart of MeanRecordAge: the scheduler's information age about
// one specific node, sampled by the observability layer at dispatch.
func (p *Protocol) RecordAge(viewer, origin int) (age float64, ok bool) {
	rec := p.record(viewer, origin)
	if rec == nil {
		return 0, false
	}
	age = p.engine.Now() - rec.Timestamp
	if age > p.expirySeconds() {
		return 0, false
	}
	return age, true
}

// AddLoadHint bumps the scheduler's cached record of target after it
// dispatched deltaMI of work there (Algorithm 1 line 15: "Update p_r's
// state record in RSS(p_s)"), so one scheduling round does not flood a
// single node before gossip refreshes.
func (p *Protocol) AddLoadHint(scheduler, target int, deltaMI float64) {
	if rec := p.record(scheduler, target); rec != nil {
		rec.TotalLoadMI += deltaMI
		p.version[scheduler]++
	}
}

// ForgetNode drops origin's record from every cache immediately. The grid
// calls it when a node departs non-gracefully only in tests; normal churn
// relies on freshness expiry like the real protocol would.
func (p *Protocol) ForgetNode(origin int) {
	for i, recs := range p.cache {
		if i == origin {
			if p.hasOwn[i] {
				p.hasOwn[i] = false
				p.version[i]++
			}
			continue
		}
		if j := slices.IndexFunc(recs, func(r StateRecord) bool { return r.Node == origin }); j >= 0 {
			p.cache[i] = slices.Delete(recs, j, j+1)
			p.version[i]++
		}
	}
}
