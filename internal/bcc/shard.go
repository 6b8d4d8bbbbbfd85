package bcc

import (
	"sync"
	"sync/atomic"

	"bcclique/internal/parallel"
)

// Intra-cell replica parallelism: at large n one cell dominates a sweep
// and RunGrid's cell-level fan-out has nothing left to parallelize, so
// the word plane shards the replicas of a single round across helper
// goroutines. Send phases are embarrassingly parallel (each replica
// writes only its own state and its own bits of the planes); the
// barrier between the send and delivery phases preserves the
// round-synchronous semantics, and shard→replica assignment is a fixed
// function of the index, so outputs are bit-identical at every worker
// count. Helper goroutines come out of the same process-wide
// parallel.Acquire budget as RunGrid's workers: a machine-wide limit of
// L means at most L simulation goroutines no matter how the cell-level
// and intra-cell layers split them.

// shardSize is the number of replicas per shard. It is a multiple of 64
// so shard boundaries are word-aligned on the plane: concurrent shards
// never touch the same word.
const shardSize = 256

// defaultIntraCellMinN is the smallest instance size that engages
// intra-cell sharding. Below it the per-phase synchronization costs
// more than the parallelism recovers.
const defaultIntraCellMinN = 2048

// intraCellMinN overrides the engagement threshold; 0 means the
// default. Tests force tiny-n parallel runs through SetIntraCellMinN.
var intraCellMinN atomic.Int64

// SetIntraCellMinN sets the smallest n at which plane runs of run-bound
// algorithms shard their rounds across helper goroutines, returning
// the previous threshold. n <= 0 restores the default. The equivalence
// suite uses it to drive small instances down the parallel path.
func SetIntraCellMinN(n int) int {
	prev := intraCellThreshold()
	if n <= 0 {
		intraCellMinN.Store(0)
	} else {
		intraCellMinN.Store(int64(n))
	}
	return prev
}

func intraCellThreshold() int {
	if v := intraCellMinN.Load(); v > 0 {
		return int(v)
	}
	return defaultIntraCellMinN
}

// intraShardsInFlight counts intra-cell shards currently executing
// across all in-process runs — the /metrics gauge operators watch to
// see an xl cell claim the machine.
var intraShardsInFlight atomic.Int64

// IntraCellShardsInFlight reports how many intra-cell shards are
// executing right now across every run in the process.
func IntraCellShardsInFlight() int64 { return intraShardsInFlight.Load() }

// shardGroup runs one run's phases over fixed replica shards: the
// calling goroutine plus any helpers drain an atomic shard cursor.
// Helpers are started once per run and parked on a channel between
// phases, so the steady-state round loop allocates nothing. A group
// opened without helpers drains every shard on the caller.
type shardGroup struct {
	n         int
	numShards int
	intraCell bool // opened for intra-cell sharding: counted in the gauge
	workers   int
	fn        func(first, limit int)
	next      atomic.Int64
	start     chan struct{}
	phaseWG   sync.WaitGroup
	exitWG    sync.WaitGroup
}

// open sizes the group for n replicas. With helpers set it reserves
// helper slots from the process-wide budget and parks that many
// workers; with zero available slots the group still works — every
// phase degrades to the sequential loop on the caller.
func (sg *shardGroup) open(n int, helpers bool) {
	sg.n = n
	sg.numShards = (n + shardSize - 1) / shardSize
	sg.intraCell = helpers
	sg.workers = 0
	if !helpers {
		return
	}
	want := sg.numShards - 1
	if most := parallel.Limit() - 1; want > most {
		want = most
	}
	if want < 0 {
		want = 0
	}
	sg.workers = parallel.Acquire(want)
	if sg.workers > 0 {
		sg.start = make(chan struct{})
		sg.exitWG.Add(sg.workers)
		for i := 0; i < sg.workers; i++ {
			go func() {
				defer sg.exitWG.Done()
				for range sg.start {
					sg.drain()
					sg.phaseWG.Done()
				}
			}()
		}
	}
}

// phase runs fn over every shard and returns after the last one
// completes — the barrier between a round's send and delivery steps.
// fn must be built once per run (not per phase) to keep the round loop
// allocation-free.
func (sg *shardGroup) phase(fn func(first, limit int)) {
	sg.fn = fn
	sg.next.Store(0)
	if sg.workers > 0 {
		sg.phaseWG.Add(sg.workers)
		for i := 0; i < sg.workers; i++ {
			sg.start <- struct{}{}
		}
	}
	sg.drain()
	sg.phaseWG.Wait()
}

// drain claims shards off the cursor until none remain. Shard s always
// covers replicas [s*shardSize, min(n, (s+1)*shardSize)) regardless of
// which goroutine claims it.
func (sg *shardGroup) drain() {
	for {
		s := int(sg.next.Add(1)) - 1
		if s >= sg.numShards {
			return
		}
		first := s * shardSize
		limit := min(first+shardSize, sg.n)
		if sg.intraCell {
			intraShardsInFlight.Add(1)
			sg.fn(first, limit)
			intraShardsInFlight.Add(-1)
		} else {
			sg.fn(first, limit)
		}
	}
}

// close retires the helpers and returns their slots to the global
// budget.
func (sg *shardGroup) close() {
	if sg.workers > 0 {
		close(sg.start)
		sg.exitWG.Wait()
		parallel.Release(sg.workers)
		sg.workers = 0
		sg.start = nil
	}
}
