package solcache

import (
	"repro/internal/core"
	"repro/internal/fault"

	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestKeyLengthPrefixPreventsSplitCollisions(t *testing.T) {
	a := Key([]byte("ab"), []byte("c"))
	b := Key([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("different part splits hashed to the same key")
	}
	if a != Key([]byte("ab"), []byte("c")) {
		t.Fatal("Key is not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a SHA-256 hex digest", a)
	}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(1 << 20)
	key := Key([]byte("assay"), []byte("opts"))
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, []byte("solution"), Meta{})
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got.Doc, []byte("solution")) {
		t.Fatalf("Get = %q, %v", got.Doc, ok)
	}
	// Returned slice is a copy: corrupting it must not poison the cache.
	got.Doc[0] = 'X'
	again, _ := c.Get(key)
	if !bytes.Equal(again.Doc, []byte("solution")) {
		t.Fatal("cache value aliased caller's slice")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Bytes != int64(len("solution")) {
		t.Fatalf("stats %+v", s)
	}
}

// TestMetaStoredWithDocument: an entry's metadata comes back as it was
// put, minus the CPU time, and neither the caller's slices nor a hit's
// copies alias the stored entry.
func TestMetaStoredWithDocument(t *testing.T) {
	c := New(1 << 20)
	meta := Meta{
		Metrics:      core.Metrics{ExecutionTime: 42, Utilization: 0.5, Transports: 3, CPU: time.Second},
		Degradations: []core.Degradation{{Stage: "route", Event: "dilate", Detail: "x2"}},
	}
	c.Put("k", []byte("doc"), meta)
	want := meta
	want.Metrics.CPU = 0
	want.Degradations = []core.Degradation{{Stage: "route", Event: "dilate", Detail: "x2"}}

	meta.Degradations[0].Event = "poisoned by the caller"
	got, ok := c.Get("k")
	if !ok || !reflect.DeepEqual(got.Meta, want) {
		t.Fatalf("Get meta = %+v, %v; want %+v", got.Meta, ok, want)
	}
	got.Degradations[0].Event = "poisoned by a reader"
	if again, _ := c.Get("k"); !reflect.DeepEqual(again.Meta, want) {
		t.Fatalf("stored meta aliased a hit's copy: %+v", again.Meta)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New(100)
	val := make([]byte, 40)
	c.Put("a", val, Meta{})
	c.Put("b", val, Meta{})
	// Touch "a" so "b" is the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", val, Meta{}) // 120 bytes total: evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted wrongly", k)
		}
	}
	if s := c.Stats(); s.Bytes > 100 {
		t.Fatalf("cache over byte bound: %+v", s)
	}
}

func TestOversizeValueRejected(t *testing.T) {
	c := New(10)
	c.Put("big", make([]byte, 11), Meta{})
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversize value stored: %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key([]byte{byte(i % 32)})
				c.Put(k, bytes.Repeat([]byte{byte(g)}, 64), Meta{})
				c.Get(k)
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries == 0 || s.Bytes == 0 {
		t.Fatalf("stats %+v after concurrent load", s)
	}
	if s.Entries > 32 {
		t.Fatalf("more entries than distinct keys: %+v", s)
	}
}

func TestRePutRefreshesRecency(t *testing.T) {
	c := New(100)
	val := make([]byte, 40)
	c.Put("a", val, Meta{})
	c.Put("b", val, Meta{})
	c.Put("a", val, Meta{}) // refresh a: b becomes LRU
	c.Put("c", val, Meta{})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted after a's refresh")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("refreshed entry a evicted")
	}
}

func ExampleKey() {
	fmt.Println(Key([]byte(`{"name":"PCR"}`), []byte(`{"seed":1}`))[:16])
	// Output: 058291ebe4aead90
}

// TestFaultInjection: a forced miss hides a present entry (counted as a
// miss) and a dropped put leaves the cache unchanged — both degrade to
// recomputation, never to corruption.
func TestFaultInjection(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", []byte("v"), Meta{})

	c.SetFault(fault.NewPlan(5).Arm(fault.CacheGetMiss, fault.Once(0)))
	if _, ok := c.Get("k"); ok {
		t.Fatal("injected miss still returned the entry")
	}
	if v, ok := c.Get("k"); !ok || string(v.Doc) != "v" {
		t.Fatalf("entry gone after injected miss: %q %v", v.Doc, ok)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", s)
	}

	c.SetFault(fault.NewPlan(5).Arm(fault.CachePutDrop, fault.Once(0)))
	c.Put("k2", []byte("v2"), Meta{})
	c.SetFault(nil)
	if _, ok := c.Get("k2"); ok {
		t.Fatal("dropped put stored the value anyway")
	}
	c.Put("k2", []byte("v2"), Meta{})
	if v, ok := c.Get("k2"); !ok || string(v.Doc) != "v2" {
		t.Fatalf("put after injected drop failed: %q %v", v.Doc, ok)
	}
}
