package results

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcclique/internal/report"
)

func sample() *report.Result {
	table := &report.Table{Title: "t", Headers: []string{"a"}, Rows: [][]string{{"1"}}}
	return &report.Result{
		ID: "E01", Title: "demo", PaperRef: "ref", Claim: "c", Finding: "f",
		Tables: []*report.Table{table}, Elapsed: 7 * time.Millisecond,
	}
}

func TestKeyBoundaries(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("part boundaries must be hashed")
	}
	if Key("a", "b") != Key("a", "b") {
		t.Error("Key must be deterministic")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("spec", "cfg")
	if _, ok, err := s.Get(context.Background(), key); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	want := sample()
	if err := s.Put(context.Background(), key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if got.ID != want.ID || got.Finding != want.Finding || got.Elapsed != want.Elapsed ||
		len(got.Tables) != 1 || got.Tables[0].Rows[0][0] != "1" {
		t.Errorf("round-trip mangled result: %+v", got)
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("torn")
	p := s.backend.(*DiskBackend).path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(`{"id": tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(context.Background(), key); err != nil || ok {
		t.Fatalf("corrupt entry should read as a miss, got ok=%v err=%v", ok, err)
	}
	// Do recomputes and heals the entry.
	res, state, err := s.Do(context.Background(), key, func() (*report.Result, error) { return sample(), nil })
	if err != nil || state.Cached() || res == nil {
		t.Fatalf("Do over corrupt entry: state=%v err=%v", state, err)
	}
	if _, ok, _ := s.Get(context.Background(), key); !ok {
		t.Error("Do should overwrite the corrupt entry")
	}
}

// TestDoSingleFlight is the dedup contract: N concurrent Do calls for
// one key perform exactly one computation and all receive its result.
func TestDoSingleFlight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("hot")
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]*report.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.Do(context.Background(), key, func() (*report.Result, error) {
				computes.Add(1)
				<-release // hold every other caller in the in-flight wait
				return sample(), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Let the goroutines pile up on the in-flight call, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("%d concurrent Do calls performed %d computations, want 1", callers, got)
	}
	for i, res := range results {
		if res == nil || res.ID != "E01" {
			t.Errorf("caller %d got %+v", i, res)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Shared != callers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d shared", st, callers-1)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("flaky")
	boom := errors.New("boom")
	if _, _, err := s.Do(context.Background(), key, func() (*report.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want compute error, got %v", err)
	}
	res, state, err := s.Do(context.Background(), key, func() (*report.Result, error) { return sample(), nil })
	if err != nil || state.Cached() || res == nil {
		t.Fatalf("retry after error: state=%v err=%v", state, err)
	}
}

// TestDoToleratesPutFailure pins the degraded-cache contract: a result
// that computes fine but cannot be stored is still served, uncached,
// with the failure counted — a full or read-only cache volume must not
// fail runs.
func TestDoToleratesPutFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("unstorable")
	// Occupy the shard directory's path with a regular file so Put's
	// MkdirAll fails (works even when running as root, unlike chmod).
	if err := os.WriteFile(filepath.Join(dir, key[:2]), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, state, err := s.Do(context.Background(), key, func() (*report.Result, error) { return sample(), nil })
	if err != nil || state.Cached() || res == nil || res.ID != "E01" {
		t.Fatalf("Do with failing Put: res=%+v state=%v err=%v", res, state, err)
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Errorf("stats = %+v, want 1 put error", st)
	}
}

// TestDoStoresResultCancelledBeforePut pins that a result computed just
// before the caller's context is cancelled is still cached: the
// cancellation lands between compute and Put, and the next lookup must
// be a hit instead of a recompute.
func TestDoStoresResultCancelledBeforePut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("finished-then-cancelled")
	ctx, cancel := context.WithCancel(context.Background())
	res, state, err := s.Do(ctx, key, func() (*report.Result, error) {
		cancel() // the client goes away after the work is done
		return sample(), nil
	})
	if err != nil || state.Cached() || res == nil {
		t.Fatalf("Do: res=%v state=%v err=%v", res, state, err)
	}
	if st := s.Stats(); st.Puts != 1 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v, want the finished result stored", st)
	}
	_, state, err = s.Do(context.Background(), key, func() (*report.Result, error) {
		t.Error("recomputed a result that finished before the cancel")
		return sample(), nil
	})
	if err != nil || state != StateHit {
		t.Fatalf("lookup after cancelled put: state=%v err=%v", state, err)
	}
}

func TestDoDiskHit(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("persist")
	if _, _, err := s1.Do(context.Background(), key, func() (*report.Result, error) { return sample(), nil }); err != nil {
		t.Fatal(err)
	}
	// A second store over the same directory — a different process in
	// real life — serves the entry without computing.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, state, err := s2.Do(context.Background(), key, func() (*report.Result, error) {
		t.Error("compute must not run on a warm disk cache")
		return nil, nil
	})
	if err != nil || state != StateHit || res == nil || res.ID != "E01" {
		t.Fatalf("disk hit: res=%+v state=%v err=%v", res, state, err)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want exactly one hit", st)
	}
}

// TestDoWaiterRetriesAfterCancelledLeader pins the
// cancellation-poisoning guard: a caller piggybacking on an in-flight
// computation whose leader gets cancelled must not inherit the leader's
// context error — it retries the lookup under its own (live) context
// and computes the result itself.
func TestDoWaiterRetriesAfterCancelledLeader(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("retry")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.Do(leaderCtx, key, func() (*report.Result, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-leaderIn

	waiterRes := make(chan *report.Result, 1)
	waiterErr := make(chan error, 1)
	var waiterComputed atomic.Int64
	go func() {
		res, _, err := s.Do(context.Background(), key, func() (*report.Result, error) {
			waiterComputed.Add(1)
			return sample(), nil
		})
		waiterErr <- err
		waiterRes <- res
	}()
	// Give the waiter time to park on the in-flight call, then cancel
	// the leader out from under it.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter inherited the leader's cancellation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never completed after leader cancellation")
	}
	if res := <-waiterRes; res == nil || res.ID != "E01" {
		t.Fatalf("waiter result = %+v", res)
	}
	if got := waiterComputed.Load(); got != 1 {
		t.Fatalf("waiter ran %d computations, want 1", got)
	}
	// The good result must now be cached for everyone else.
	res, state, err := s.Do(context.Background(), key, func() (*report.Result, error) {
		t.Error("third caller recomputed a cached result")
		return sample(), nil
	})
	if err != nil || !state.Cached() || res == nil {
		t.Fatalf("post-retry lookup: res=%v state=%v err=%v", res, state, err)
	}
}

// TestDoCancelledWaiterReturnsOwnError pins the other half: a waiter
// whose own context dies while parked on an in-flight computation gets
// its own context error without waiting for the leader.
func TestDoCancelledWaiterReturnsOwnError(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key("waiter-cancel")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.Do(context.Background(), key, func() (*report.Result, error) {
			close(leaderIn)
			<-release
			return sample(), nil
		})
	}()
	<-leaderIn

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := s.Do(waiterCtx, key, func() (*report.Result, error) {
			t.Error("cancelled waiter must not compute")
			return sample(), nil
		})
		waiterErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelWaiter()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	// Let the leader finish its store write before the tempdir is
	// removed out from under it.
	close(release)
	<-leaderDone
}
