package remote

import (
	"testing"

	"placeless/internal/sig"
)

// Tests for the client tier's per-document entry table: every way an
// entry leaves — push, eviction, reconnect flush, Close — must remove
// exactly the entries it names, leave every other document's intact,
// keep blob reference counts, BytesStored and the policy exact, and
// leave no empty per-document slot behind.

// checkIndex asserts the table invariants at quiescence.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := 0
	refs := map[sig.Signature]int{}
	for doc, users := range c.entries {
		if len(users) == 0 {
			t.Errorf("empty slot left for %q", doc)
		}
		for user, e := range users {
			entries++
			refs[e.signature]++
			if e.key != key(doc, user) {
				t.Errorf("entry %q filed under %q/%q", e.key, doc, user)
			}
		}
	}
	var stored int64
	for s, b := range c.blobs {
		stored += int64(len(b.data))
		if b.refs != refs[s] {
			t.Errorf("blob has %d references, %d entries hold it", b.refs, refs[s])
		}
	}
	if len(refs) != len(c.blobs) {
		t.Errorf("%d signatures held, %d blobs stored", len(refs), len(c.blobs))
	}
	if stored != c.stats.BytesStored {
		t.Errorf("BytesStored %d, blobs hold %d", c.stats.BytesStored, stored)
	}
	if n := c.policy.Len(); n != entries {
		t.Errorf("policy tracks %d keys, %d entries resident", n, entries)
	}
}

var indexDocs = []string{"alpha", "beta", "gamma"}
var indexUsers = []string{"u0", "u1", "u2"}

// indexRig caches every (document, user) pair of three documents and
// three users: nine entries, three per document.
func indexRig(t *testing.T, opts Options) *rig {
	t.Helper()
	r := newRig(t, opts)
	for _, doc := range indexDocs {
		if err := r.client.CreateDocument(doc, indexUsers[0], []byte(doc+" body")); err != nil {
			t.Fatal(err)
		}
		for i, u := range indexUsers {
			if i > 0 {
				if err := r.client.AddReference(doc, u); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.cache.Read(doc, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkIndex(t, r.cache)
	return r
}

// docEntries snapshots one document's entries by user.
func docEntries(c *Cache, doc string) map[string]*entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]*entry{}
	for u, e := range c.entries[doc] {
		out[u] = e
	}
	return out
}

// assertSame fails unless doc's entries are the very ones in before.
func assertSame(t *testing.T, c *Cache, doc string, before map[string]*entry) {
	t.Helper()
	after := docEntries(c, doc)
	if len(after) != len(before) {
		t.Fatalf("%q: %d entries, want %d", doc, len(after), len(before))
	}
	for u, e := range before {
		if after[u] != e {
			t.Fatalf("%q/%s was replaced or dropped", doc, u)
		}
	}
}

// TestIndexDocWidePush: a write's push, and a direct document-wide
// push, each remove exactly that document's entries.
func TestIndexDocWidePush(t *testing.T) {
	r := indexRig(t, Options{})
	alpha, gamma := docEntries(r.cache, "alpha"), docEntries(r.cache, "gamma")
	if err := r.cache.Write("beta", "u0", []byte("beta v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(docEntries(r.cache, "beta")) == 0 && r.client.PendingInvalidations() == 0 })
	assertSame(t, r.cache, "alpha", alpha)
	assertSame(t, r.cache, "gamma", gamma)
	checkIndex(t, r.cache)

	r.cache.onInvalidate("gamma", "")
	if n := len(docEntries(r.cache, "gamma")); n != 0 {
		t.Fatalf("gamma keeps %d entries after a document-wide push", n)
	}
	assertSame(t, r.cache, "alpha", alpha)
	if got := r.cache.Stats().Invalidations; got != 6 {
		t.Fatalf("Invalidations = %d, want 6", got)
	}
	checkIndex(t, r.cache)
}

// TestIndexPerUserPush: a per-user push removes one entry; the
// document's other users and the other documents stay.
func TestIndexPerUserPush(t *testing.T) {
	r := indexRig(t, Options{})
	alpha, beta := docEntries(r.cache, "alpha"), docEntries(r.cache, "beta")
	r.cache.onInvalidate("beta", "u1")
	after := docEntries(r.cache, "beta")
	if _, ok := after["u1"]; ok || len(after) != 2 || after["u0"] != beta["u0"] || after["u2"] != beta["u2"] {
		t.Fatalf("beta after a push for u1: %v", after)
	}
	assertSame(t, r.cache, "alpha", alpha)
	checkIndex(t, r.cache)

	r.cache.onInvalidate("beta", "u0")
	r.cache.onInvalidate("beta", "u2")
	r.cache.onInvalidate("beta", "u2") // already gone: not counted again
	if n := len(docEntries(r.cache, "beta")); n != 0 {
		t.Fatalf("beta keeps %d entries", n)
	}
	if got := r.cache.Stats().Invalidations; got != 3 {
		t.Fatalf("Invalidations = %d, want 3", got)
	}
	checkIndex(t, r.cache)
}

// TestIndexEviction: the policy's victims are split back into (doc,
// user) and emptied slots are pruned.
func TestIndexEviction(t *testing.T) {
	// Each document's three users share one blob, so a budget of one
	// body holds one document at a time.
	r := indexRig(t, Options{Capacity: int64(len("alpha body"))})
	st := r.cache.Stats()
	if st.Evictions < 6 || st.BytesStored > int64(len("alpha body")) {
		t.Fatalf("stats after filling a one-body budget: %+v", st)
	}
	checkIndex(t, r.cache)
	r.cache.mu.Lock()
	docs := len(r.cache.entries)
	r.cache.mu.Unlock()
	if docs > 1 {
		t.Fatalf("%d document slots under a one-body budget", docs)
	}
}

// TestIndexReconnectFlush: a reconnect flushes every entry and leaves
// an empty table, with the flush counted per entry.
func TestIndexReconnectFlush(t *testing.T) {
	r := indexRig(t, Options{})
	r.cache.onReconnect(1)
	if n := r.cache.Len(); n != 0 {
		t.Fatalf("%d entries survive the reconnect flush", n)
	}
	if st := r.cache.Stats(); st.EpochFlushes != 9 {
		t.Fatalf("EpochFlushes = %d, want 9", st.EpochFlushes)
	}
	checkIndex(t, r.cache)
	r.cache.mu.Lock()
	docs := len(r.cache.entries)
	r.cache.mu.Unlock()
	if docs != 0 {
		t.Fatalf("%d document slots left after the flush", docs)
	}
	// The table refills under the new epoch.
	if _, err := r.cache.Read("alpha", "u1"); err != nil {
		t.Fatal(err)
	}
	if !r.cache.Contains("alpha", "u1") {
		t.Fatal("read after the flush was not cached")
	}
	checkIndex(t, r.cache)
}

// TestIndexClose: Close empties the table.
func TestIndexClose(t *testing.T) {
	r := indexRig(t, Options{})
	r.cache.Close()
	r.cache.mu.Lock()
	docs, blobs, stored := len(r.cache.entries), len(r.cache.blobs), r.cache.stats.BytesStored
	r.cache.mu.Unlock()
	if docs != 0 || blobs != 0 || stored != 0 {
		t.Fatalf("after Close: %d document slots, %d blobs, %d bytes", docs, blobs, stored)
	}
}

// TestHitAllocatesOnlyTheCopy: a client hit builds no key string; its
// one allocation is the caller's private copy of the bytes, which
// TestRemoteSingleFlight requires.
func TestHitAllocatesOnlyTheCopy(t *testing.T) {
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("warm body")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cache.Read("d", "u"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.cache.Read("d", "u"); err != nil {
			t.Fatal(err)
		}
	})
	if st := r.cache.Stats(); st.Hits < 100 {
		t.Fatalf("reads were not hits: %+v", st)
	}
	if allocs != 1 {
		t.Fatalf("a hit allocated %.1f times, want 1 (the caller's copy)", allocs)
	}
}
