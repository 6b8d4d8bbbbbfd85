package bcc

import (
	"context"
	"math/bits"
	"sync"
)

// The word plane is the runner's production path for BCC(b). A round of
// an algorithm whose vertices broadcast exactly b bits or stay silent
// (⊥) is b+1 n-bit bitsets —
//
//	planes[i][v>>6] bit v&63 — bit i of vertex v's broadcast (0 if silent)
//	spoke[v>>6]     bit v&63 — whether vertex v broadcast at all
//
// Delivery is aliasing: a broadcast is the same for every listener, so
// all n receivers read the *same* word arrays instead of n permuted
// (n−1)-slot Message inboxes. Self-exclusion, which the reference path
// implements by omitting the receiver from its inbox, becomes a rank
// check inside the node. The per-round cost RoundBits[t] is
// b·popcount(spoke).
//
// Every plane run goes through a shardGroup: run-bound algorithms at
// large n split each phase over helper goroutines; everything else gets
// a group with no helpers that drains its shards on the caller.
//
// The per-port reference loop (runner.go) remains authoritative: it
// serves algorithms without plane support, nodes that decline their
// binding, and WithoutBitPlane runs, and it is the equivalence oracle
// the plane is pinned against byte for byte (see bitplane_test.go, the
// protocol-level suite, and internal/equiv).

// BitAlgorithm is implemented by algorithms whose nodes can run on the
// word plane. The runner takes the plane only when BitPlane() reports
// true, WithoutBitPlane was not given, and every node accepts its plane
// binding; otherwise the run takes the reference path with identical
// results. A run-bound algorithm (RunBinder) rides the plane when the
// bound algorithm implements BitAlgorithm.
type BitAlgorithm interface {
	Algorithm
	// BitPlane reports whether this configuration broadcasts exactly
	// Bandwidth() bits or ⊥ in every round and its nodes implement
	// BitNode (Flood declines for B > 1: its last row segment is
	// shorter than B).
	BitPlane() bool
}

// BitNode is the word-parallel counterpart of Node. The runner calls
// BindPlane once before round 1, then SendWord/ReceivePlanes instead of
// Send/Receive. Nodes must keep both interfaces consistent: SendWord's
// broadcast is recorded as the Message Word(bits, b) (or Silence), and
// the equivalence suite pins that against Send round by round.
type BitNode interface {
	// BindPlane hands the node its simulation bookkeeping: self is the
	// node's plane index (= vertex index), and portTarget[p] is the
	// plane index behind port p — nil means the instance's canonical
	// ascending-ID wiring, where port p of self leads to plane index p
	// (p < self) or p+1, and plane indices coincide with sorted-ID
	// ranks. The slice aliases runner-owned wiring; treat it as
	// read-only. Returning false declines the binding (e.g. a
	// rank-space node handed a non-canonical plane) and sends the whole
	// run down the reference path.
	BindPlane(self int, portTarget []int) bool
	// SendWord is Send for the plane: the broadcast's b bits (LSB
	// first; higher bits are ignored) and whether the node speaks at
	// all this round (false is the paper's ⊥).
	SendWord(round int) (bits uint64, speak bool)
	// ReceivePlanes delivers the round: planes (one per message bit)
	// and spoke are the shared bitsets described above, aliased by
	// every listener and reused between rounds — nodes must not retain
	// or mutate them. The node's own broadcast is present; excluding it
	// is the node's rank check. GatherWords decodes whole words.
	ReceivePlanes(round int, planes [][]uint64, spoke []uint64)
}

// GatherWords transposes a round's planes back into per-vertex words:
// dst[v] receives bit i of vertex v's broadcast from planes[i]. Silent
// vertices decode as 0 — consult spoke to tell ⊥ from an all-zero
// broadcast. dst must have one slot per vertex; the cost is one pass
// over the planes' set bits.
func GatherWords(dst []uint64, planes [][]uint64) {
	clear(dst)
	for i, plane := range planes {
		bit := uint64(1) << uint(i)
		for wi, w := range plane {
			for w != 0 {
				dst[wi<<6+bits.TrailingZeros64(w)] |= bit
				w &= w - 1
			}
		}
	}
}

// planeRun is one plane run's state: the plane arena, the bound node
// table, the shard group, and the two phase closures. It is pooled
// across runs (and across the worker goroutines of a sweep grid), and
// the closures are built once per pooled object, so a warm run's round
// loop allocates nothing.
type planeRun struct {
	sg     shardGroup
	nodes  []BitNode
	arena  []uint64 // spoke followed by the b planes, words each
	planes [][]uint64
	spoke  []uint64
	b      int
	mask   uint64
	round  int
	rounds int
	// sent is the run's vertex-major Sent arena (nil without
	// transcripts): vertex v's round-t broadcast lands at
	// v*rounds + t−1, a slot no other shard writes.
	sent []Message

	sendPhase, recvPhase func(first, limit int)
}

var planeRunPool = sync.Pool{New: func() interface{} {
	p := new(planeRun)
	p.sendPhase = p.send
	p.recvPhase = p.recv
	return p
}}

// bindPlane type-asserts every node onto the plane and binds it. Any
// node that is not a BitNode, or declines its binding, sends the run
// down the reference path (nil).
func bindPlane(in *Instance, nodes []Node, b int) *planeRun {
	p := planeRunPool.Get().(*planeRun)
	if cap(p.nodes) < len(nodes) {
		p.nodes = make([]BitNode, len(nodes))
	}
	p.nodes = p.nodes[:len(nodes)]
	for v, node := range nodes {
		bn, ok := node.(BitNode)
		var portTarget []int
		if !in.canonical {
			portTarget = in.ports[v]
		}
		if !ok || !bn.BindPlane(v, portTarget) {
			p.release()
			return nil
		}
		p.nodes[v] = bn
	}
	n := len(nodes)
	words := (n + 63) / 64
	if cap(p.arena) < (b+1)*words {
		p.arena = make([]uint64, (b+1)*words)
	}
	p.arena = p.arena[:(b+1)*words]
	p.spoke = p.arena[:words:words]
	if cap(p.planes) < b {
		p.planes = make([][]uint64, b)
	}
	p.planes = p.planes[:b]
	for i := range p.planes {
		p.planes[i] = p.arena[(i+1)*words : (i+2)*words : (i+2)*words]
	}
	p.b = b
	p.mask = uint64(1)<<uint(b) - 1 // all ones at b = 64: the shift yields 0
	return p
}

// release drops the run's references to nodes and transcripts and
// returns p to the pool.
func (p *planeRun) release() {
	clear(p.nodes)
	p.sent = nil
	planeRunPool.Put(p)
}

// run is the plane's round loop. Contract with the reference loop
// (pinned by the equivalence suites): identical RoundBits, TotalBits,
// verdicts, labels and Sent transcripts. sent is the Sent arena (nil
// without transcripts); helpers opts the run into intra-cell sharding
// over helper goroutines.
func (p *planeRun) run(ctx context.Context, res *Result, sent []Message, helpers bool) error {
	p.rounds = res.Rounds
	p.sent = sent
	p.sg.open(len(p.nodes), helpers)
	defer p.sg.close()
	for t := 1; t <= p.rounds; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.round = t
		p.sg.phase(p.sendPhase)
		spoken := 0
		for _, w := range p.spoke {
			spoken += bits.OnesCount64(w)
		}
		res.RoundBits[t-1] = p.b * spoken
		res.TotalBits += p.b * spoken
		p.sg.phase(p.recvPhase)
	}
	res.BitPlane = true
	return nil
}

// send is the send phase over vertices [first, limit). Shard bounds are
// multiples of 64, so concurrent shards clear and fill disjoint words.
func (p *planeRun) send(first, limit int) {
	t := p.round
	wf, wl := first>>6, (limit+63)>>6
	clear(p.spoke[wf:wl])
	for _, plane := range p.planes {
		clear(plane[wf:wl])
	}
	for v := first; v < limit; v++ {
		word, speak := p.nodes[v].SendWord(t)
		if !speak {
			continue // Silence is the zero Message: the arena already holds it
		}
		w, m := v>>6, uint64(1)<<uint(v&63)
		p.spoke[w] |= m
		word &= p.mask
		for x := word; x != 0; x &= x - 1 {
			p.planes[bits.TrailingZeros64(x)][w] |= m
		}
		if p.sent != nil {
			p.sent[v*p.rounds+t-1] = Message{Bits: word, Len: uint8(p.b)}
		}
	}
}

// recv is the delivery phase over vertices [first, limit).
func (p *planeRun) recv(first, limit int) {
	for v := first; v < limit; v++ {
		p.nodes[v].ReceivePlanes(p.round, p.planes, p.spoke)
	}
}
