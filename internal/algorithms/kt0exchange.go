package algorithms

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"bcclique/internal/bcc"
)

// KT0Exchange solves Connectivity (and ConnectedComponents) for bounded-
// degree inputs in the KT-0 variant of BCC(1), where vertices initially
// know nothing about who is behind their ports. It realizes the paper's
// Section 1 observation that the KT-0/KT-1 distinction dissolves once
// b·rounds ≥ log n:
//
//	Phase 1 (IDBits rounds): every vertex broadcasts its own ID bit by
//	bit; afterwards each vertex knows the ID behind every port.
//	Phase 2 (MaxDegree·IDBits rounds): as NeighborhoodBroadcast, but
//	slots carry neighbour IDs learned through input ports.
//
// Total: (MaxDegree+1)·IDBits rounds of 1 bit — O(log n) for 2-regular
// inputs, matching the KT-0 Ω(log n) lower bound of Theorem 3.1.
//
// A vertex's phase-2 stream is MaxDegree·IDBits bits long, so it is
// stored in streamWords 64-bit words and its slots are decoded across
// word boundaries; nothing the protocol broadcasts is dropped.
//
// What each replica accumulates is a projection of one global object:
// the per-vertex announcement streams, identical in every inbox. Under
// the runner's RunBinder protocol the n per-replica stream tables
// collapse into one run-shared mirror — uid[u] and u's streamWords-word
// stream — filled once per round by whichever replica wins the round's
// apply. On a complete schedule every replica's reconstructed claim
// graph coincides with the shared one, so verdict and labels are
// computed once and read per-replica in O(1). Truncated runs (the
// replicas' universes genuinely diverge when a partial uid differs from
// a vertex's own full ID) reconstruct each replica's outputs from the
// shared streams. Bare NewNode keeps a self-contained per-node
// accumulation for callers that drive nodes by hand.
type KT0Exchange struct {
	// MaxDegree is the degree bound the schedule is provisioned for.
	MaxDegree int
	// IDBits is the width of the ID announcements; every instance ID
	// must fit (IDs are O(log n)-bit in the model).
	IDBits int
}

// NewKT0Exchange returns the algorithm for the given degree bound and ID
// width.
func NewKT0Exchange(maxDegree, idBits int) (*KT0Exchange, error) {
	if maxDegree < 1 {
		return nil, fmt.Errorf("algorithms: max degree %d < 1", maxDegree)
	}
	if idBits < 1 || idBits > 62 {
		return nil, fmt.Errorf("algorithms: id width %d outside [1,62]", idBits)
	}
	return &KT0Exchange{MaxDegree: maxDegree, IDBits: idBits}, nil
}

// Name implements bcc.Algorithm.
func (a *KT0Exchange) Name() string { return "kt0-exchange" }

// Bandwidth implements bcc.Algorithm: this is a BCC(1) algorithm.
func (a *KT0Exchange) Bandwidth() int { return 1 }

// Rounds implements bcc.Algorithm.
func (a *KT0Exchange) Rounds(int) int { return (a.MaxDegree + 1) * a.IDBits }

// streamWords is the number of 64-bit words one phase-2 stream spans.
func (a *KT0Exchange) streamWords() int { return (a.MaxDegree*a.IDBits + 63) / 64 }

// BitPlane implements bcc.BitAlgorithm: the algorithm is BCC(1) in
// every configuration. Unlike the rank-space KT-1 nodes, the run-shared
// mirror is vertex-indexed, so the plane accepts any wiring.
func (a *KT0Exchange) BitPlane() bool { return true }

// kt0RunPool recycles the run-shared stream tables and node arenas.
var kt0RunPool = sync.Pool{New: func() interface{} { return new(kt0Run) }}

// BindRun implements bcc.RunBinder: one shared announcement mirror per
// run. kt0-exchange reads nothing KT-1-specific, so binding works on
// every knowledge variant.
func (a *KT0Exchange) BindRun(in *bcc.Instance, _ int) bcc.Algorithm {
	r := kt0RunPool.Get().(*kt0Run)
	n := in.N()
	r.KT0Exchange = a
	r.in = in
	r.pooled = true
	r.rounds = 0
	r.finished = false
	r.sharedValid = false
	r.appliedRound.Store(0)
	r.nextNode = 0
	r.words = a.streamWords()
	if cap(r.uid) < n {
		r.uid = make([]uint64, n)
	}
	r.uid = r.uid[:n]
	if cap(r.stream) < n*r.words {
		r.stream = make([]uint64, n*r.words)
	}
	r.stream = r.stream[:n*r.words]
	clear(r.uid)
	clear(r.stream)
	if cap(r.nodes) < n {
		r.nodes = make([]kt0Node, n)
	}
	r.nodes = r.nodes[:n]
	r.nbrs = r.nbrs[:0]
	if want := 2 * in.Input().M(); cap(r.nbrs) < want {
		r.nbrs = make([]int32, 0, want)
	}
	return r
}

// kt0Run is the run-shared announcement mirror: uid[u] collects the
// phase-1 bits vertex u broadcast, streamOf(u) its phase-2 slot stream —
// exactly the columns every replica's per-port tables would have held.
// The first replica to receive each round wins the CAS and transcribes
// the round's broadcast vector; everyone else returns untouched.
type kt0Run struct {
	*KT0Exchange
	in     *bcc.Instance
	uid    []uint64
	stream []uint64 // vertex-major, words per vertex
	words  int
	rounds int // last applied round = the run's actual length
	// appliedRound gates the once-per-round transcription.
	appliedRound atomic.Int64
	nodes        []kt0Node
	nextNode     int
	nbrs         []int32 // per-node input-neighbour arena

	// Shared outputs, computed lazily after the last round when the
	// schedule ran to completion (see finishShared).
	finished    bool
	sharedValid bool
	sharedIx    *indexer
	sharedComp  []int32 // rank → smallest rank in its claim-graph component
	sharedOne   bool    // claim graph is connected
	pooled      bool
}

// NewNode implements bcc.Algorithm on the bound run. Nodes come out of
// the run's arena; the arena index is the vertex index (the runner
// constructs nodes in vertex order), which is what ties each replica to
// its column of the shared mirror.
func (r *kt0Run) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	var node *kt0Node
	if r.nextNode < len(r.nodes) {
		node = &r.nodes[r.nextNode]
		*node = kt0Node{self: int32(r.nextNode)}
		r.nextNode++
	} else {
		node = &kt0Node{}
	}
	node.run = r
	node.id = view.ID
	node.idBits = r.IDBits
	node.maxDegree = r.MaxDegree
	if view.ID < 0 || view.ID >= 1<<uint(r.IDBits) || len(view.InputPorts) > r.MaxDegree {
		node.broken = true
		return node
	}
	start := len(r.nbrs)
	for _, p := range view.InputPorts {
		r.nbrs = append(r.nbrs, int32(r.in.NeighborAt(int(node.self), p)))
	}
	node.nbrOfSlot = r.nbrs[start:len(r.nbrs):len(r.nbrs)]
	return node
}

// ReleaseRun implements bcc.RunReleaser.
func (r *kt0Run) ReleaseRun() {
	if !r.pooled {
		return
	}
	r.KT0Exchange = nil
	r.in = nil
	r.sharedIx = nil
	kt0RunPool.Put(r)
}

// beginApply claims round t's transcription for the calling replica.
func (r *kt0Run) beginApply(round int) bool {
	return r.appliedRound.CompareAndSwap(int64(round-1), int64(round))
}

// streamOf returns vertex u's phase-2 stream.
func (r *kt0Run) streamOf(u int) []uint64 { return r.stream[u*r.words : (u+1)*r.words] }

// accumulate records that vertex u broadcast the given bit in round t.
func (r *kt0Run) accumulate(u int, bit uint8, round int) {
	if round <= r.IDBits {
		r.uid[u] |= uint64(bit&1) << uint(round-1)
	} else {
		setStreamBit(r.streamOf(u), bit, round-r.IDBits-1)
	}
}

// setStreamBit ORs bit into position i of a phase-2 stream. Positions
// past the stream lie beyond the schedule (WithRounds can extend a run)
// and are dropped.
func setStreamBit(stream []uint64, bit uint8, i int) {
	if bit&1 != 0 && i < len(stream)<<6 {
		stream[i>>6] |= 1 << uint(i&63)
	}
}

// slotID decodes the s-th idBits-wide slot of a phase-2 stream; a slot
// may straddle a word boundary.
func slotID(stream []uint64, s, idBits int) int {
	off := s * idBits
	w, b := off>>6, uint(off&63)
	v := stream[w] >> b
	if b+uint(idBits) > 64 {
		v |= stream[w+1] << (64 - b)
	}
	return int(v & (1<<uint(idBits) - 1))
}

// claimSlots appends to claims the ranks of the IDs announced in the
// first slots slots of stream, skipping IDs outside the universe.
func claimSlots(claims []int, ix *indexer, stream []uint64, slots, idBits int) []int {
	for s := 0; s < slots; s++ {
		if w := ix.rank(slotID(stream, s, idBits)); w >= 0 {
			claims = append(claims, w)
		}
	}
	return claims
}

// finishShared computes the shared claim graph once the run is over.
// Only meaningful (sharedValid) when the schedule ran to completion:
// then every non-broken replica's reconstructed universe and claim
// graph coincide with the shared ones — uid[v] is v's own full ID, and
// v's announced phase-2 stream decodes to exactly the port claims v
// would have entered for itself — so one components pass serves all n
// replicas, whatever the stream's width. Callers are sequential (the
// runner's output epilogue).
func (r *kt0Run) finishShared() {
	if r.finished {
		return
	}
	r.finished = true
	if r.rounds < (r.MaxDegree+1)*r.IDBits {
		return // truncated: universes diverge; replicas take the slow path
	}
	n := len(r.uid)
	allIDs := make([]int, n)
	for u, bits := range r.uid {
		allIDs[u] = int(bits)
	}
	ix := newIndexer(allIDs)
	claims := make([][]int, ix.n())
	for u := 0; u < n; u++ {
		v := ix.rank(int(r.uid[u]))
		claims[v] = claimSlots(claims[v], ix, r.streamOf(u), r.MaxDegree, r.IDBits)
	}
	g := claimGraph(ix.n(), claims)
	d := g.Components()
	r.sharedOne = d.Sets() == 1
	if cap(r.sharedComp) < ix.n() {
		r.sharedComp = make([]int32, ix.n())
	}
	r.sharedComp = r.sharedComp[:ix.n()]
	for v := range r.sharedComp {
		r.sharedComp[v] = -1
	}
	// Ascending rank order is ascending ID order, so the first member
	// to reach a root carries the component's smallest ID.
	for v := 0; v < ix.n(); v++ {
		if root := d.Find(v); r.sharedComp[root] == -1 {
			r.sharedComp[root] = int32(v)
		}
	}
	for v := 0; v < ix.n(); v++ {
		r.sharedComp[v] = r.sharedComp[d.Find(v)]
	}
	r.sharedIx = ix
	r.sharedValid = true
}

// NewNode implements bcc.Algorithm on the bare (unbound) algorithm: a
// self-contained node that accumulates its own per-port stream tables,
// for callers that drive nodes by hand.
func (a *KT0Exchange) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &kt0Node{
		id:         view.ID,
		idBits:     a.IDBits,
		maxDegree:  a.MaxDegree,
		inputPorts: append([]int(nil), view.InputPorts...),
		portID:     make([]uint64, view.NumPorts),
		words:      a.streamWords(),
	}
	node.phase2 = make([]uint64, view.NumPorts*node.words)
	if view.ID < 0 || view.ID >= 1<<uint(a.IDBits) {
		node.broken = true
	}
	if len(view.InputPorts) > a.MaxDegree {
		node.broken = true
	}
	return node
}

// kt0Node is one replica. In run-shared mode (run != nil) its residue
// is the vertex index and the input-neighbour slot table; in private
// mode it carries its own per-port uid/stream tables.
type kt0Node struct {
	run        *kt0Run
	id         int
	idBits     int
	maxDegree  int
	inputPorts []int    // private mode
	portID     []uint64 // private mode: phase-1 ID heard on each port
	phase2     []uint64 // private mode: phase-2 stream heard on each port, port-major
	words      int      // private mode: words per phase-2 stream
	rounds     int      // private mode
	self       int32    // shared mode: vertex index
	nbrOfSlot  []int32  // shared mode: vertex behind the s-th input port
	outDone    bool
	out        componentOutputs
	broken     bool
}

// heardID returns the phase-1 announcement of the vertex behind input
// slot s.
func (n *kt0Node) heardID(s int) uint64 {
	if n.run != nil {
		return n.run.uid[n.nbrOfSlot[s]]
	}
	return n.portID[n.inputPorts[s]]
}

func (n *kt0Node) sendBit(round int) (uint8, bool) {
	if round <= n.idBits {
		return uint8(n.id>>uint(round-1)) & 1, true
	}
	r := round - n.idBits - 1
	slot := r / n.idBits
	bit := r % n.idBits
	if slot >= n.maxDegree {
		return 0, false
	}
	if slot < n.degree() {
		// Announce the ID learned on our slot-th input port.
		return uint8(n.heardID(slot)>>uint(bit)) & 1, true
	}
	// Filler: our own ID ("no neighbour").
	return uint8(n.id>>uint(bit)) & 1, true
}

func (n *kt0Node) degree() int {
	if n.run != nil {
		return len(n.nbrOfSlot)
	}
	return len(n.inputPorts)
}

func (n *kt0Node) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	bit, speak := n.sendBit(round)
	if !speak {
		return bcc.Silence
	}
	return bcc.Bit(bit)
}

func (n *kt0Node) Receive(round int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	if r := n.run; r != nil {
		if !r.beginApply(round) {
			return
		}
		r.rounds = round
		for p, m := range inbox {
			r.accumulate(r.in.NeighborAt(int(n.self), p), m.BitAt(0), round)
		}
		// The inbox omits our own broadcast; transcribe it from the
		// same schedule Send used (phase-2 sends read only phase-1
		// state, stable since the phase boundary).
		if bit, speak := n.sendBit(round); speak {
			r.accumulate(int(n.self), bit, round)
		}
		return
	}
	n.rounds = round
	if round <= n.idBits {
		for p, m := range inbox {
			n.portID[p] |= uint64(m.BitAt(0)) << uint(round-1)
		}
		return
	}
	r := round - n.idBits - 1
	for p, m := range inbox {
		setStreamBit(n.portStream(p), m.BitAt(0), r)
	}
}

// portStream returns the phase-2 stream heard on port p (private mode).
func (n *kt0Node) portStream(p int) []uint64 { return n.phase2[p*n.words : (p+1)*n.words] }

// BindPlane implements bcc.BitNode. A shared node's mirror is
// vertex-indexed, so any wiring is accepted; a private node keeps
// per-port streams and declines (the runner always binds kt0-exchange,
// so only hand-driven bare nodes are private).
func (n *kt0Node) BindPlane(int, []int) bool { return n.broken || n.run != nil }

// SendWord implements bcc.BitNode: the same two-phase schedule as Send.
func (n *kt0Node) SendWord(round int) (uint64, bool) {
	if n.broken {
		return 0, false
	}
	bit, speak := n.sendBit(round)
	return uint64(bit), speak
}

// ReceivePlanes implements bcc.BitNode: only set value bits matter (the
// reference path ORs zeros in as no-ops), so the winning replica
// transcribes every set bit — its own included, since uid[self] is part
// of the mirror — into the vertex-indexed tables.
func (n *kt0Node) ReceivePlanes(round int, planes [][]uint64, _ []uint64) {
	r := n.run
	if n.broken || !r.beginApply(round) {
		return
	}
	r.rounds = round
	for wi, w := range planes[0] {
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			r.accumulate(u, 1, round)
		}
	}
}

func (n *kt0Node) outputs() componentOutputs {
	if n.broken {
		return componentOutputs{verdict: bcc.VerdictNo, label: -1}
	}
	if n.outDone {
		return n.out
	}
	n.outDone = true
	n.out = n.computeOutputs()
	return n.out
}

func (n *kt0Node) computeOutputs() componentOutputs {
	if r := n.run; r != nil {
		r.finishShared()
		if r.sharedValid {
			// Complete schedule: the shared claim graph is every
			// non-broken replica's claim graph.
			selfRank := r.sharedIx.rank(n.id)
			verdict := bcc.VerdictNo
			if r.sharedOne {
				verdict = bcc.VerdictYes
			}
			return componentOutputs{verdict: verdict, label: r.sharedIx.id(int(r.sharedComp[selfRank]))}
		}
		// Truncated schedule: reconstruct this replica's outputs from
		// the shared streams. The replica's universe is its own full
		// ID plus everyone else's partial announcements.
		nn := len(r.uid)
		allIDs := make([]int, 0, nn)
		allIDs = append(allIDs, n.id)
		for u := 0; u < nn; u++ {
			if u != int(n.self) {
				allIDs = append(allIDs, int(r.uid[u]))
			}
		}
		ix := newIndexer(allIDs)
		self := ix.rank(n.id)
		claims := make([][]int, ix.n())
		for s := 0; s < n.degree(); s++ {
			claims[self] = append(claims[self], ix.rank(int(r.uid[n.nbrOfSlot[s]])))
		}
		slots := (r.rounds - n.idBits) / n.idBits
		if slots > n.maxDegree {
			slots = n.maxDegree
		}
		for u := 0; u < nn; u++ {
			if u == int(n.self) {
				continue
			}
			v := ix.rank(int(r.uid[u]))
			if v < 0 {
				return componentOutputs{verdict: bcc.VerdictNo, label: -1}
			}
			claims[v] = claimSlots(claims[v], ix, r.streamOf(u), slots, n.idBits)
		}
		g := claimGraph(ix.n(), claims)
		return outputsFromGraph(g, ix, self, false)
	}
	// Private mode: all IDs = own + everything heard in phase 1.
	allIDs := []int{n.id}
	for _, pid := range n.portID {
		allIDs = append(allIDs, int(pid))
	}
	ix := newIndexer(allIDs)
	self := ix.rank(n.id)
	claims := make([][]int, ix.n())
	for _, p := range n.inputPorts {
		claims[self] = append(claims[self], ix.rank(int(n.portID[p])))
	}
	slots := (n.rounds - n.idBits) / n.idBits
	if slots > n.maxDegree {
		slots = n.maxDegree
	}
	for p, pid := range n.portID {
		v := ix.rank(int(pid))
		if v < 0 {
			return componentOutputs{verdict: bcc.VerdictNo, label: -1}
		}
		claims[v] = claimSlots(claims[v], ix, n.portStream(p), slots, n.idBits)
	}
	g := claimGraph(ix.n(), claims)
	return outputsFromGraph(g, ix, self, false)
}

// Decide implements bcc.Decider.
func (n *kt0Node) Decide() bcc.Verdict { return n.outputs().verdict }

// Label implements bcc.Labeler.
func (n *kt0Node) Label() int { return n.outputs().label }

var (
	_ bcc.Algorithm    = (*KT0Exchange)(nil)
	_ bcc.BitAlgorithm = (*KT0Exchange)(nil)
	_ bcc.RunBinder    = (*KT0Exchange)(nil)
	_ bcc.BitAlgorithm = (*kt0Run)(nil)
	_ bcc.RunReleaser  = (*kt0Run)(nil)
	_ bcc.Decider      = (*kt0Node)(nil)
	_ bcc.Labeler      = (*kt0Node)(nil)
	_ bcc.BitNode      = (*kt0Node)(nil)
)
