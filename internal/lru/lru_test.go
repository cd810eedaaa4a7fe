package lru

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustCreate(t *testing.T, c *Cache[string, int], k string, v int) {
	t.Helper()
	got, hit, err := c.GetOrCreate(k, func() (int, error) { return v, nil })
	if err != nil || hit || got != v {
		t.Fatalf("GetOrCreate(%q) = %d, hit=%v, err=%v", k, got, hit, err)
	}
}

func TestBasicsAndEviction(t *testing.T) {
	c := New[string, int](2)
	if c.Cap() != 2 {
		t.Fatalf("cap = %d", c.Cap())
	}
	mustCreate(t, c, "a", 1)
	mustCreate(t, c, "b", 2)
	// A hit never calls the builder.
	if v, hit, err := c.GetOrCreate("a", nil); err != nil || !hit || v != 1 {
		t.Fatalf("GetOrCreate(a) = %d, hit=%v, err=%v", v, hit, err)
	}
	// "a" was just used, so inserting "c" evicts "b".
	mustCreate(t, c, "c", 3)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, hit, _ := c.GetOrCreate("a", nil); !hit {
		t.Fatal("a should have survived")
	}
	// A re-requested evicted key rebuilds (miss).
	v, hit, err := c.GetOrCreate("b", func() (int, error) { return 20, nil })
	if err != nil || hit || v != 20 {
		t.Fatalf("rebuild b = %d, hit=%v, err=%v", v, hit, err)
	}
}

func TestEvictionsCounter(t *testing.T) {
	c := New[string, int](2)
	mustCreate(t, c, "a", 1)
	mustCreate(t, c, "b", 2)
	if n := c.Evictions(); n != 0 {
		t.Fatalf("evictions = %d before capacity reached", n)
	}
	mustCreate(t, c, "c", 3)
	mustCreate(t, c, "d", 4)
	if n := c.Evictions(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
	// A failed build removed by its own caller is not an eviction.
	_, _, err := c.GetOrCreate("e", func() (int, error) { return 0, errors.New("boom") })
	if err == nil {
		t.Fatal("expected build error")
	}
	if n := c.Evictions(); n != 3 {
		// Inserting "e" evicted one entry; its failure-removal must not
		// count again.
		t.Fatalf("evictions = %d, want 3", n)
	}
}

func TestHitReporting(t *testing.T) {
	c := New[string, int](4)
	mustCreate(t, c, "k", 9)
	v, hit, err := c.GetOrCreate("k", func() (int, error) {
		t.Fatal("builder must not run on a hit")
		return 0, nil
	})
	if err != nil || !hit || v != 9 {
		t.Fatalf("hit = %d, %v, %v", v, hit, err)
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	_, _, err := c.GetOrCreate("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed build left len = %d", c.Len())
	}
	v, hit, err := c.GetOrCreate("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry = %d, %v, %v", v, hit, err)
	}
}

// TestPanickingBuildLeavesNoSlot: a build that panics propagates its
// panic, hands the callers waiting on it ErrBuildPanicked instead of
// parking them for ever, and leaves the key free for a retry.
func TestPanickingBuildLeavesNoSlot(t *testing.T) {
	c := New[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = c.GetOrCreate("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		// Joins the flight, or — arriving after the slot is gone — builds.
		v, hit, err := c.GetOrCreate("k", func() (int, error) { return 7, nil })
		if !hit && (err != nil || v != 7) {
			err = fmt.Errorf("late build = %d, %v", v, err)
		}
		waited <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter reach the slot
	close(release)
	if p := <-recovered; p != "boom" {
		t.Fatalf("recovered %v, want the build's own panic", p)
	}
	select {
	case err := <-waited:
		if err != nil && !errors.Is(err, ErrBuildPanicked) {
			t.Fatalf("waiter: %v", err)
		}
		if err != nil && c.Len() != 0 {
			t.Fatalf("panicked build left len = %d", c.Len())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked on a build that panicked")
	}
	if v, _, err := c.GetOrCreate("k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

func TestSingleflight(t *testing.T) {
	c := New[string, int](4)
	var builds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCreate("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("GetOrCreate = %d, %v", v, err)
			}
		}()
	}
	// Give every goroutine a chance to reach the cache.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
}

func TestOtherKeysNotBlockedByInflightBuild(t *testing.T) {
	c := New[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrCreate("slow", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	// The slow build must not hold the cache lock.
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		mustCreate(t, c, "fast", 2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("an unrelated key was blocked by an in-flight build")
	}
	close(release)
	wg.Wait()
}

func TestBoundHoldsUnderConcurrency(t *testing.T) {
	const capacity = 8
	c := New[string, int](capacity)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprintf("k%d", (i*200+j)%50)
				_, _, _ = c.GetOrCreate(k, func() (int, error) { return j, nil })
				if n := c.Len(); n > capacity {
					t.Errorf("len %d exceeds capacity %d", n, capacity)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("final len %d exceeds capacity %d", n, capacity)
	}
}

func TestItems(t *testing.T) {
	c := New[string, int](4)
	mustCreate(t, c, "a", 1)
	mustCreate(t, c, "b", 2)
	items := c.Items()
	if len(items) != 2 || items[0].Key != "b" || items[1].Key != "a" {
		t.Fatalf("items = %+v", items)
	}
	// In-flight builds are skipped.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrCreate("slow", func() (int, error) {
			close(started)
			<-release
			return 3, nil
		})
	}()
	<-started
	if items := c.Items(); len(items) != 2 {
		t.Fatalf("in-flight build leaked into Items: %+v", items)
	}
	close(release)
	wg.Wait()
	if items := c.Items(); len(items) != 3 {
		t.Fatalf("completed build missing from Items: %+v", items)
	}
}
