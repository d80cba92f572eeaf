// Package par provides the hand-rolled, stdlib-only worker pool behind
// Jaal's parallel summarization engine.
//
// The pool is shared process-wide and sized to runtime.GOMAXPROCS at
// first use: GOMAXPROCS−1 helper goroutines plus the dispatching
// goroutine, which always participates in its own work. Work is handed
// out in runs of consecutive indices from an atomic counter, and each
// index is run exactly once — a caller that stores per-index results
// and reduces them in index order gets byte-identical output whether
// the work ran on 1 worker or 64. That property is what lets the
// pipeline parallelize monitor polling, question matching and scenario
// sweeps while keeping same-seed runs reproducible (see DESIGN.md,
// "Performance").
//
// Dispatch is allocation-free in steady state: task descriptors are
// recycled through a sync.Pool and handed to helpers over a channel.
// A slot is handed out only after claiming a provably idle helper from
// an atomic count; with no idle helper the slot is shed and the
// dispatcher absorbs the work itself. The claim has to track idle
// helpers, not queue capacity: a buffered send succeeds whenever the
// queue has space, even when every helper is parked inside an outer
// task waiting on this very dispatch — nested fan-outs (a scenario
// sweep whose pipelines fan out monitor polls) would then park all
// pool participants on work only they could drain. Claiming
// idle helpers makes that state unreachable: a queued task implies a
// helper with no current work, which will dequeue it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool observability: how often work fans out vs runs inline, how
// often a saturated pool sheds helper slots, and how many goroutines
// are busy right now. Counted once per dispatch (not per chunk), so
// the accounting adds two atomic ops to an operation that already
// costs a channel send per helper.
var (
	cDispatch = obs.NewCounter("jaal_par_dispatch_total",
		"parallel dispatches fanned out across the worker pool")
	cInline = obs.NewCounter("jaal_par_inline_total",
		"dispatches run inline on the caller (small n or single worker)")
	cShed = obs.NewCounter("jaal_par_shed_total",
		"helper slots shed because no helper was idle")
	gActive = obs.NewIntGauge("jaal_par_active_workers",
		"goroutines currently executing pool tasks (dispatchers included)")
)

// task is one dispatch, shared by every worker helping with it.
type task struct {
	fn    func(i int)
	n     int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup
}

// maxChunk caps how many consecutive indices one claim takes.
const maxChunk = 64

// chunkFor is the run length For claims at: one index while n is small
// beside the workers, so a few coarse tasks still spread out, and up to
// maxChunk once each worker would get at least eight runs. Many cheap
// indices — a 10k-question library, most of it pruned — would
// otherwise pass the shared counter between workers once per index.
func chunkFor(n, workers int) int {
	return min(max(n/(8*workers), 1), maxChunk)
}

// run claims runs of chunk indices until the counter passes n. Several
// goroutines run the same task concurrently; each index is claimed
// exactly once.
func (t *task) run() {
	for {
		hi := int(t.next.Add(int64(t.chunk)))
		lo := hi - t.chunk
		if lo >= t.n {
			return
		}
		for i := lo; i < min(hi, t.n); i++ {
			t.fn(i)
		}
	}
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

var (
	startOnce sync.Once
	queue     chan *task
	poolSize  int

	// idleHelpers counts helpers with no task: parked on the queue or
	// about to re-park. dispatch claims one slot per helper it enqueues
	// for (Add(-1) >= 0) and a helper returns its slot after finishing a
	// task, so tasks in the queue never outnumber helpers free to drain
	// them — the invariant that keeps nested dispatch deadlock-free.
	idleHelpers atomic.Int64
)

// start lazily spins up the shared helpers. With GOMAXPROCS == 1 no
// helpers exist and every dispatch runs inline.
func start() {
	startOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		// Capacity bounds queue depth ≥ poolSize−1, the most tasks the
		// idle claims can admit, so a claimed send never blocks.
		queue = make(chan *task, poolSize)
		idleHelpers.Store(int64(poolSize - 1))
		for i := 0; i < poolSize-1; i++ {
			go func() {
				for t := range queue {
					gActive.Add(1)
					t.run()
					gActive.Add(-1)
					t.wg.Done()
					idleHelpers.Add(1)
				}
			}()
		}
	})
}

// Size returns the pool's parallelism: GOMAXPROCS at first use.
func Size() int {
	start()
	return poolSize
}

// For runs fn(i) once for every i in [0, n) across at most workers
// goroutines including the caller (workers <= 0 selects GOMAXPROCS),
// blocking until all of them have run. Workers claim runs of
// consecutive indices (chunkFor), one index at a time while n is small,
// so it suits coarse, heterogeneous tasks — polling a monitor, running
// one scenario — as well as many cheap ones, such as matching each
// question of a large library. fn must be safe for concurrent calls on
// distinct indices.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	start()
	if workers <= 0 || workers > poolSize {
		workers = poolSize
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		cInline.Inc()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	cDispatch.Inc()
	t := taskPool.Get().(*task)
	t.fn, t.n, t.chunk = fn, n, chunkFor(n, workers)
	t.next.Store(0)
	helpers := workers - 1
	t.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		if idleHelpers.Add(-1) >= 0 {
			queue <- t
		} else {
			// No helper is idle; shed the slot rather than queue work
			// nobody is free to take — when this dispatch runs inside a
			// pool task, a queued slot could otherwise wait on the very
			// helpers parked in this WaitGroup below. The dispatcher
			// still completes the task alone.
			idleHelpers.Add(1)
			cShed.Inc()
			t.wg.Done()
		}
	}
	gActive.Add(1)
	t.run()
	gActive.Add(-1)
	t.wg.Wait()
	t.fn = nil
	taskPool.Put(t)
}
