package core

import (
	"runtime"
	"sync"
)

// The entry index is partitioned into lock-striped shards so
// concurrent readers of different (document, user) entries never
// contend on one global mutex (the seed implementation's shape). A
// shard owns a slice of the key space — both the cached entries and
// the in-flight miss table for single-flight coalescing — selected by
// an FNV-1a hash of the (doc, user) key masked to a power-of-two
// shard count.
//
// Within a stripe, entries are nested by document (entries[doc][user])
// so that a document-wide invalidation visits only the document's own
// entries: its cost is the number of entries the document has, not the
// size of the cache. A document's slot is deleted with its last entry,
// so the table never holds empty per-document maps.
//
// Lock ordering (see also DESIGN.md §"Sharded cache core"):
//
//	shard.mu | interMu  >  policyMu | blobMu     (leaf locks)
//
// A goroutine may take at most one of the upper-rank locks at a time
// (one shard lock or interMu, never both), may take any single leaf
// lock while holding an upper-rank lock, and must never acquire an
// upper-rank lock while holding a leaf lock. Per-document invalidation
// generations are plain atomics (Cache.gens) and sit outside the
// ordering entirely. No lock may be held across calls into the
// document space (attachment, read/write paths, event forwarding) or
// across clock sleeps — both can synchronously re-enter the cache
// through notifier callbacks and timer-driven flushes.

// shard is one stripe of the (doc, user) index. entries is keyed by
// document, then user; flights by the pair itself, so neither a hit nor
// joining a flight builds a key string.
type shard struct {
	mu      sync.Mutex
	entries map[string]map[string]*entry
	flights map[docUser]*flight
}

// docUser identifies an in-flight miss.
type docUser struct{ doc, user string }

// get returns the entry for (doc, user), or nil. Caller holds sh.mu.
func (sh *shard) get(doc, user string) *entry {
	return sh.entries[doc][user]
}

// put installs e under the (doc, user) of its key, using substrings of
// the key so the table retains no other copy of either. Caller holds
// sh.mu.
func (sh *shard) put(e *entry) {
	doc, user := splitKey(e.key)
	users := sh.entries[doc]
	if users == nil {
		users = make(map[string]*entry)
		sh.entries[doc] = users
	}
	users[user] = e
}

// remove deletes (doc, user) and the document's slot with its last
// entry. Caller holds sh.mu.
func (sh *shard) remove(doc, user string) {
	users := sh.entries[doc]
	delete(users, user)
	if len(users) == 0 {
		delete(sh.entries, doc)
	}
}

// shardedIndex is the striped entry table.
type shardedIndex struct {
	shards []shard
	mask   uint32
}

// defaultShardCount scales the stripe count with available
// parallelism: the next power of two at or above 4×GOMAXPROCS,
// clamped to [8, 256]. Oversubscribing cores keeps the collision
// probability of two hot keys on one stripe low.
func defaultShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return nextPow2(n)
}

// nextPow2 rounds n up to a power of two (n must be >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newShardedIndex builds an index with n stripes; n <= 0 selects the
// GOMAXPROCS-scaled default, other values are rounded up to a power of
// two so masking works.
func newShardedIndex(n int) *shardedIndex {
	if n <= 0 {
		n = defaultShardCount()
	} else {
		n = nextPow2(n)
	}
	idx := &shardedIndex{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range idx.shards {
		idx.shards[i].entries = make(map[string]map[string]*entry)
		idx.shards[i].flights = make(map[docUser]*flight)
	}
	return idx
}

// FNV-1a constants (32-bit).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardHash is FNV-1a over the bytes of the composite key
// doc + "\x00" + user, hashed in place so a lookup builds no string.
// It is the stable shard-assignment function: equal keys always land
// on the same stripe, regardless of map iteration or insertion order.
func shardHash(doc, user string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(doc); i++ {
		h ^= uint32(doc[i])
		h *= fnvPrime32
	}
	h *= fnvPrime32 // the NUL separator: h ^= 0 is a no-op
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= fnvPrime32
	}
	return h
}

// shardFor returns the stripe owning (doc, user).
func (x *shardedIndex) shardFor(doc, user string) *shard {
	return &x.shards[shardHash(doc, user)&x.mask]
}

// each visits every stripe in index order, locking one at a time —
// the pattern used by document-wide invalidation and Close. fn runs
// with sh.mu held and must follow the leaf-lock ordering rules.
func (x *shardedIndex) each(fn func(sh *shard)) {
	for i := range x.shards {
		sh := &x.shards[i]
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}

// count sums entries across stripes.
func (x *shardedIndex) count() int {
	n := 0
	x.each(func(sh *shard) {
		for _, users := range sh.entries {
			n += len(users)
		}
	})
	return n
}
