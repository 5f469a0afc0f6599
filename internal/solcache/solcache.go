// Package solcache is the content-addressed result cache of the
// synthesis service. The paper's flow is deterministic in its inputs —
// every stage takes an explicit seed — so a complete solution is a pure
// function of (assay, allocation, options, algorithm). That makes results
// content-addressable: the cache key is the SHA-256 of a canonical
// encoding of those inputs, and the value is the solio-serialized
// solution, byte-identical to what a fresh synthesis of the same request
// would produce. Next to the document an entry keeps the hit metadata —
// the solution's metrics and degradation rungs — so a hit is answered
// without decoding the document again: it was validated once, when it
// was inserted. Entries are bounded by total byte size with
// least-recently-used eviction, and hit/miss counters feed the service's
// /metrics endpoint.
package solcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// Cache is a thread-safe LRU keyed by content hash.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     int64
	misses   int64
	// flt injects cache faults (forced misses, dropped puts) when armed;
	// nil in production. Both faults are safe by construction: the cache
	// is a pure accelerator, so losing an entry can only cost a
	// recomputation, never correctness.
	flt *fault.Plan
}

type entry struct {
	key string
	Entry
}

// Meta is what a hit reports about a document without decoding it: the
// metrics and degradation rungs the inserting site took from the
// solution the document encodes.
type Meta struct {
	// Metrics has CPU zeroed: wall time is measurement, not content.
	Metrics      core.Metrics
	Degradations []core.Degradation
}

// Entry is one cached solution: the immutable document and its Meta.
type Entry struct {
	Doc []byte
	Meta
}

// Stats is a point-in-time aggregate of the cache.
type Stats struct {
	Entries  int
	Bytes    int64
	MaxBytes int64
	Hits     int64
	Misses   int64
}

// New creates a cache bounded to maxBytes of stored values (keys and
// bookkeeping are not counted). maxBytes <= 0 selects a 256 MiB default.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Key hashes the canonical request parts into the content address. The
// caller is responsible for canonical part encodings (e.g. re-encoding a
// decoded assay through its stable MarshalJSON rather than hashing the
// client's formatting); each part is length-prefixed so distinct splits
// can never collide.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 7; i >= 0; i-- {
			lenBuf[i] = byte(n)
			n >>= 8
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether s has the shape Key produces: exactly 64
// lowercase hex digits. The cluster's peer endpoints accept keys from
// the network and must reject anything else before touching the cache
// (a key is also a URL path segment there, so shape-checking doubles as
// input sanitization).
func ValidKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SetFault arms the cache's injection points (solcache.get.miss,
// solcache.put.drop) on the given plan; nil disables injection.
func (c *Cache) SetFault(p *fault.Plan) {
	c.mu.Lock()
	c.flt = p
	c.mu.Unlock()
}

// Get returns a copy of the cached entry and records a hit or miss.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flt.Fire(fault.CacheGetMiss) {
		c.misses++
		return Entry{}, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return Entry{
		Doc:  slices.Clone(e.Doc),
		Meta: Meta{Metrics: e.Metrics, Degradations: slices.Clone(e.Degradations)},
	}, true
}

// Put stores a copy of doc and its metadata under key, evicting
// least-recently-used entries if the byte bound would be exceeded. The
// caller vouches that meta describes doc: every insertion site either
// encoded doc from the solution it took meta from, or decoded and
// validated doc to get meta. Meta's CPU time is zeroed here. Documents
// larger than the bound are not stored at all. Re-putting an existing
// key refreshes its recency (the value is content-addressed, so it
// cannot change).
func (c *Cache) Put(key string, doc []byte, meta Meta) {
	if int64(len(doc)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flt.Fire(fault.CachePutDrop) {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	meta.Metrics.CPU = 0
	meta.Degradations = slices.Clone(meta.Degradations)
	el := c.ll.PushFront(&entry{key: key, Entry: Entry{Doc: slices.Clone(doc), Meta: meta}})
	c.items[key] = el
	c.bytes += int64(len(doc))
	for c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.Doc))
	}
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:  c.ll.Len(),
		Bytes:    c.bytes,
		MaxBytes: c.maxBytes,
		Hits:     c.hits,
		Misses:   c.misses,
	}
}
