package algorithms

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"bcclique/internal/bcc"
	"bcclique/internal/dsu"
)

// Flood is the naive KT-1 BCC(b) baseline: every vertex broadcasts its
// full adjacency row — one bit per other vertex, in sorted-ID order —
// packed b bits per round. After ⌈(n−1)/b⌉ rounds every vertex knows the
// entire input graph. Θ(n/b) rounds: the curve the O(log n) algorithms
// are measured against in experiment E12.
//
// At b = 1 flood is the word plane's flagship rider: the row lives in a
// bitset, SendWord is one shift, and ReceivePlanes consumes 64 adjacency
// claims per word by trailing-zero iteration straight into the
// incremental union-find.
//
// That union-find is a pure function of the broadcast transcript, so
// under the runner's RunBinder protocol the n per-replica replicas
// collapse into one run-shared Compact fed once per round by whichever
// replica wins the apply — own bits included, since every vertex's own
// claims re-arrive through its own broadcast. Per-replica residue is
// just the vertex's own adjacency row. On a schedule that covers the
// whole row the shared partition is every non-broken replica's
// partition; truncated runs refine a scratch copy with the replica's
// own full row (the part of its knowledge the broadcasts never
// delivered). Bare NewNode keeps the classic self-contained replica.
type Flood struct {
	// B is the per-round bandwidth.
	B int
}

// NewFlood returns the baseline with bandwidth b.
func NewFlood(b int) (*Flood, error) {
	if b < 1 || b > bcc.MaxBandwidth {
		return nil, fmt.Errorf("algorithms: bandwidth %d outside [1,%d]", b, bcc.MaxBandwidth)
	}
	return &Flood{B: b}, nil
}

// Name implements bcc.Algorithm.
func (a *Flood) Name() string { return "flood" }

// Bandwidth implements bcc.Algorithm.
func (a *Flood) Bandwidth() int { return a.B }

// Rounds implements bcc.Algorithm.
func (a *Flood) Rounds(n int) int { return (n - 2 + a.B) / a.B } // ⌈(n−1)/B⌉

// BitPlane implements bcc.BitAlgorithm: only the 1-bit configuration
// rides the plane.
func (a *Flood) BitPlane() bool { return a.B == 1 }

// floodRunPool recycles the shared union-find, the row arena, and the
// node arena across runs.
var floodRunPool = sync.Pool{New: func() interface{} { return new(floodRun) }}

// BindRun implements bcc.RunBinder: one shared claim partition per run.
func (a *Flood) BindRun(in *bcc.Instance, _ int) bcc.Algorithm {
	r := floodRunPool.Get().(*floodRun)
	r.Flood = a
	r.in = in
	r.pooled = true
	r.maxRound = 0
	r.finished = false
	r.full = false
	r.appliedRound.Store(0)
	r.nextNode = 0
	r.nodes = r.nodes[:0]
	if ids := in.SortedIDs(); ids != nil {
		n := len(ids)
		r.ix = newIndexer(ids)
		r.rowLen = n - 1
		if r.comp == nil {
			r.comp = dsu.NewCompact(n)
		} else {
			r.comp.Reset(n)
		}
		if cap(r.vertexRank) < n {
			r.vertexRank = make([]int32, n)
		}
		r.vertexRank = r.vertexRank[:n]
		for u := 0; u < n; u++ {
			r.vertexRank[u] = int32(r.ix.rank(in.ID(u)))
		}
		if cap(r.nodes) < n {
			r.nodes = make([]floodNode, n)
		}
		r.nodes = r.nodes[:n]
		rowWords := (r.rowLen + 63) / 64
		if cap(r.rowArena) < n*rowWords {
			r.rowArena = make([]uint64, n*rowWords)
		}
		r.rowArena = r.rowArena[:n*rowWords]
		clear(r.rowArena)
		r.rowWords = rowWords
	} else {
		r.ix = nil
	}
	return r
}

// floodRun is the run-shared substrate: the frozen ID indexer, the
// vertex→rank table, and one broadcast-fed union-find standing in for
// all n replicas. The row arena backs every replica's own-row residue.
type floodRun struct {
	*Flood
	in         *bcc.Instance
	ix         *indexer
	comp       *dsu.Compact // union of every claim heard on the broadcast channel
	vertexRank []int32
	rowLen     int
	rowWords   int
	maxRound   int
	// appliedRound gates the once-per-round apply.
	appliedRound atomic.Int64
	nodes        []floodNode
	nextNode     int
	rowArena     []uint64
	// Shared outputs: full reports whether the schedule covered the
	// whole row (then comp is every replica's partition and minRank
	// holds per-rank component labels); scratch serves the truncated
	// per-replica refinement.
	finished bool
	full     bool
	minRank  []int32
	scratch  *dsu.Compact
	pooled   bool
}

// NewNode implements bcc.Algorithm on the bound run.
func (r *floodRun) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	var node *floodNode
	vertex := r.nextNode
	if vertex < len(r.nodes) {
		node = &r.nodes[vertex]
		r.nextNode++
		*node = floodNode{}
	} else {
		node = &floodNode{}
	}
	node.run = r
	node.b = r.B
	if r.ix == nil || view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.self = int32(r.vertexRank[vertex])
	node.rowLen = int32(r.rowLen)
	node.rowBits = r.rowArena[vertex*r.rowWords : (vertex+1)*r.rowWords : (vertex+1)*r.rowWords]
	for _, p := range view.InputPorts {
		nbr := int(r.vertexRank[r.in.NeighborAt(vertex, p)])
		pos := nbr
		if nbr > int(node.self) {
			pos = nbr - 1
		}
		node.rowBits[pos>>6] |= 1 << uint(pos&63)
	}
	return node
}

// ReleaseRun implements bcc.RunReleaser.
func (r *floodRun) ReleaseRun() {
	if !r.pooled {
		return
	}
	r.Flood = nil
	r.in = nil
	r.ix = nil
	floodRunPool.Put(r)
}

// beginApply claims round t's apply for the calling replica.
func (r *floodRun) beginApply(round int) bool {
	if !r.appliedRound.CompareAndSwap(int64(round-1), int64(round)) {
		return false
	}
	r.maxRound = round
	return true
}

// finishShared decides, once, whether the run covered every row
// position — in which case the shared partition serves all replicas and
// per-rank labels are computed in one pass. Callers are sequential (the
// runner's output epilogue).
func (r *floodRun) finishShared() {
	if r.finished {
		return
	}
	r.finished = true
	if r.maxRound*r.B < r.rowLen {
		return // truncated: replicas refine with their own rows
	}
	r.full = true
	n := r.ix.n()
	if cap(r.minRank) < n {
		r.minRank = make([]int32, n)
	}
	r.minRank = r.minRank[:n]
	for v := range r.minRank {
		r.minRank[v] = -1
	}
	// Ascending rank order is ascending ID order: the first member to
	// reach a root carries the component's smallest ID.
	for v := 0; v < n; v++ {
		if root := r.comp.Find(v); r.minRank[root] == -1 {
			r.minRank[root] = int32(v)
		}
	}
	for v := 0; v < n; v++ {
		r.minRank[v] = r.minRank[r.comp.Find(v)]
	}
}

// NewNode implements bcc.Algorithm on the bare (unbound) algorithm: the
// classic self-contained replica with its own union-find, for callers
// that drive nodes by hand.
func (a *Flood) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &floodNode{b: a.B}
	if view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.ix = newIndexer(view.AllIDs)
	node.self = int32(node.ix.rank(view.ID))
	nn := node.ix.n()
	node.rowLen = int32(nn - 1)
	node.rowBits = make([]uint64, (int(node.rowLen)+63)/64)
	// Incrementally union every adjacency claim as its bit arrives
	// instead of buffering heard rows: memory per node is O(n), not
	// O(n²), and the final decision is a component count. Our own row's
	// claims are entered up front.
	node.comp = dsu.NewCompact(nn)
	for _, p := range view.InputPorts {
		nbr := node.ix.rank(view.PortID(p))
		// row bit i covers sorted index rowTarget(self, i): the
		// encoding skips our own index.
		pos := nbr
		if nbr > int(node.self) {
			pos = nbr - 1
		}
		node.rowBits[pos>>6] |= 1 << uint(pos&63)
		node.comp.Union(int(node.self), nbr)
	}
	// Per-port delivery needs per-port speaker ranks and bit counters;
	// they are built lazily from the view on first Receive.
	node.view = view
	return node
}

// rowTarget maps position pos of speaker's adjacency-row encoding (which
// skips the speaker's own sorted index) back to the claimed neighbour's
// sorted index.
func rowTarget(speaker, pos int) int {
	if pos < speaker {
		return pos
	}
	return pos + 1
}

// floodNode is one replica: rank, own adjacency row, and — in private
// mode only — its own union-find and per-port reference-path state.
type floodNode struct {
	run     *floodRun // non-nil → run-shared mode
	b       int
	self    int32
	rowLen  int32
	rowBits []uint64 // own adjacency row over the n−1 encoded positions, LSB first

	// Private-mode state.
	ix       *indexer
	comp     *dsu.Compact // union of every adjacency claim heard (plus our own)
	view     bcc.View     // lazy port→rank source for the reference path
	portRank []int32
	got      []int32 // got[p] = adjacency-row bits received on port p so far
	broken   bool
}

func (n *floodNode) rowBit(pos int) uint64 { return n.rowBits[pos>>6] >> uint(pos&63) & 1 }

func (n *floodNode) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	start := (round - 1) * n.b
	if start >= int(n.rowLen) {
		return bcc.Silence
	}
	var payload uint64
	length := 0
	for i := start; i < int(n.rowLen) && length < n.b; i++ {
		payload |= n.rowBit(i) << uint(length)
		length++
	}
	return bcc.Word(payload, length)
}

// genericBind materializes the per-port state of the private Message
// path.
func (n *floodNode) genericBind() {
	if n.portRank != nil {
		return
	}
	n.portRank = make([]int32, n.view.NumPorts)
	for p := 0; p < n.view.NumPorts; p++ {
		n.portRank[p] = int32(n.ix.rank(n.view.PortID(p)))
	}
	n.got = make([]int32, n.view.NumPorts)
}

func (n *floodNode) Receive(t int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	if r := n.run; r != nil {
		base := (t - 1) * n.b
		if base >= int(n.rowLen) || !r.beginApply(t) {
			return
		}
		// Transcribe the round into the shared partition: every
		// speaker's claims, our own included — the inbox omits our
		// broadcast, so our row segment is replayed directly.
		for p, m := range inbox {
			if m.Len == 0 {
				continue
			}
			speaker := int(r.vertexRank[r.in.NeighborAt(int(n.self), p)])
			n.applyClaims(speaker, m, base)
		}
		selfLen := int(n.rowLen) - base
		if selfLen > n.b {
			selfLen = n.b
		}
		for i := 0; i < selfLen; i++ {
			if n.rowBit(base+i) != 0 {
				r.comp.Union(int(n.self), rowTarget(int(n.self), base+i))
			}
		}
		return
	}
	n.genericBind()
	rowLen := n.rowLen
	for p, m := range inbox {
		if m.Len == 0 {
			continue
		}
		speaker := int(n.portRank[p])
		base := n.got[p]
		for i := 0; i < int(m.Len); i++ {
			pos := base + int32(i)
			if pos >= rowLen {
				break // trailing bits beyond the row encoding carry nothing
			}
			if m.BitAt(i) == 1 {
				n.comp.Union(speaker, rowTarget(speaker, int(pos)))
			}
		}
		n.got[p] = base + int32(m.Len)
	}
}

// applyClaims unions one speaker's round-t row segment into the shared
// partition. Every non-broken vertex follows the same schedule, so the
// segment base is (t−1)·b for every speaker — exactly what the private
// path's per-port got counters would read.
func (n *floodNode) applyClaims(speaker int, m bcc.Message, base int) {
	r := n.run
	for i := 0; i < int(m.Len); i++ {
		pos := base + i
		if pos >= r.rowLen {
			break
		}
		if m.BitAt(i) == 1 {
			r.comp.Union(speaker, rowTarget(speaker, pos))
		}
	}
}

// BindPlane implements bcc.BitNode. The shared partition is
// rank-indexed, so a shared node accepts only the canonical plane,
// where plane indices coincide with sorted-ID ranks; a materialized
// wiring — or a private node (the runner always binds flood, so only
// hand-driven bare nodes are private) — sends the run down the
// reference path.
func (n *floodNode) BindPlane(self int, portTarget []int) bool {
	if n.broken {
		return true // inert: never speaks, ignores every round
	}
	return n.run != nil && portTarget == nil && self == int(n.self)
}

// SendWord implements bcc.BitNode: bit pos = round−1 of the row.
func (n *floodNode) SendWord(round int) (uint64, bool) {
	if n.broken {
		return 0, false
	}
	pos := round - 1
	if pos >= int(n.rowLen) {
		return 0, false
	}
	return n.rowBit(pos), true
}

// ReceivePlanes implements bcc.BitNode: 64 adjacency claims per word.
// Every non-broken flood node follows the same schedule — it speaks in
// exactly rounds 1..n−1 — so in round t every set value bit is a claim
// at row position t−1 (the reference path's per-port got counters all
// read t−1 here; the equivalence suite pins this). The winning replica
// transcribes the whole word array, own bit included.
func (n *floodNode) ReceivePlanes(round int, planes [][]uint64, _ []uint64) {
	r := n.run
	pos := round - 1
	if n.broken || pos >= int(n.rowLen) || !r.beginApply(round) {
		return
	}
	for wi, w := range planes[0] {
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			r.comp.Union(u, rowTarget(u, pos))
		}
	}
}

// finalComp returns the partition this replica decides from: its own
// union-find in private mode; the shared partition on a full-coverage
// bound run; a scratch refinement (shared claims plus the replica's own
// full row) on a truncated bound run. Callers are sequential.
func (n *floodNode) finalComp() *dsu.Compact {
	r := n.run
	if r == nil {
		return n.comp
	}
	r.finishShared()
	if r.full {
		return r.comp
	}
	if r.scratch == nil {
		r.scratch = dsu.NewCompact(r.ix.n())
	}
	r.scratch.CopyFrom(r.comp)
	for wi, w := range n.rowBits {
		for w != 0 {
			pos := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			r.scratch.Union(int(n.self), rowTarget(int(n.self), pos))
		}
	}
	return r.scratch
}

// Decide implements bcc.Decider.
func (n *floodNode) Decide() bcc.Verdict {
	if n.broken {
		return bcc.VerdictNo
	}
	if n.finalComp().Sets() == 1 {
		return bcc.VerdictYes
	}
	return bcc.VerdictNo
}

// Label implements bcc.Labeler: the smallest ID in this vertex's
// component of the reconstructed graph.
func (n *floodNode) Label() int {
	if n.broken {
		return -1
	}
	if r := n.run; r != nil {
		r.finishShared()
		if r.full {
			return r.ix.id(int(r.minRank[n.self]))
		}
		sc := n.finalComp()
		minID := r.ix.id(int(n.self))
		for u := 0; u < r.ix.n(); u++ {
			if sc.Same(int(n.self), u) && r.ix.id(u) < minID {
				minID = r.ix.id(u)
			}
		}
		return minID
	}
	minID := n.ix.id(int(n.self))
	for u := 0; u < n.ix.n(); u++ {
		if n.comp.Same(int(n.self), u) && n.ix.id(u) < minID {
			minID = n.ix.id(u)
		}
	}
	return minID
}

var (
	_ bcc.Algorithm    = (*Flood)(nil)
	_ bcc.BitAlgorithm = (*Flood)(nil)
	_ bcc.RunBinder    = (*Flood)(nil)
	_ bcc.BitAlgorithm = (*floodRun)(nil)
	_ bcc.RunReleaser  = (*floodRun)(nil)
	_ bcc.Decider      = (*floodNode)(nil)
	_ bcc.Labeler      = (*floodNode)(nil)
	_ bcc.BitNode      = (*floodNode)(nil)
)
