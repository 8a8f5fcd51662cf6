package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/stream"
)

// Tests for the per-document entry index: every invalidation path must
// remove exactly the document's (or the user's) entries and
// intermediates, leave every other document's untouched, and leave no
// empty or orphan slot behind in the nested stripe tables or in the
// intermediates' side index.

// checkIndex asserts the index invariants at quiescence: every stripe
// slot is non-empty and holds entries filed under their own (doc, user)
// and stripe; the intermediate side index mirrors inter exactly; and
// the policy and blob reference counts track exactly what is resident.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	entries := 0
	for i := range c.idx.shards {
		sh := &c.idx.shards[i]
		sh.mu.Lock()
		for doc, users := range sh.entries {
			if len(users) == 0 {
				t.Errorf("stripe %d keeps an empty slot for %q", i, doc)
			}
			for user, e := range users {
				entries++
				if e.key != key(doc, user) {
					t.Errorf("entry %q filed under %q/%q", e.key, doc, user)
				}
				if c.idx.shardFor(doc, user) != sh {
					t.Errorf("entry %q/%q on the wrong stripe", doc, user)
				}
			}
		}
		sh.mu.Unlock()
	}
	c.interMu.Lock()
	defer c.interMu.Unlock()
	for k, e := range c.inter {
		if c.interByDoc[e.doc][k] != e {
			t.Errorf("intermediate of %q missing from the side index", e.doc)
		}
	}
	indexed := 0
	for doc, byKey := range c.interByDoc {
		if len(byKey) == 0 {
			t.Errorf("side index keeps an empty slot for %q", doc)
		}
		for k, e := range byKey {
			indexed++
			if c.inter[k] != e || e.doc != doc {
				t.Errorf("orphan side-index key under %q", doc)
			}
		}
	}
	if indexed != len(c.inter) {
		t.Errorf("side index holds %d keys, store %d", indexed, len(c.inter))
	}
	c.policyMu.Lock()
	tracked := c.policy.Len()
	c.policyMu.Unlock()
	if tracked != entries+len(c.inter) {
		t.Errorf("policy tracks %d keys, %d entries + %d intermediates resident", tracked, entries, len(c.inter))
	}
	c.blobMu.Lock()
	refs, stored := 0, int64(0)
	for _, b := range c.blobs {
		refs += b.refs
		stored += int64(len(b.data))
	}
	c.blobMu.Unlock()
	if refs != entries+len(c.inter) {
		t.Errorf("blob references %d, holders %d", refs, entries+len(c.inter))
	}
	if got := c.stats.bytesStored.Load(); got != stored {
		t.Errorf("BytesStored %d, blobs hold %d", got, stored)
	}
}

// residentView is the cache's content by document: entries by user and
// intermediates (with the user that owns each personal cut, "" for a
// universal one) by key.
type residentView struct {
	entries map[string]map[string]*entry
	inter   map[string]map[string]*interEntry
}

func resident(c *Cache) residentView {
	v := residentView{entries: map[string]map[string]*entry{}, inter: map[string]map[string]*interEntry{}}
	c.idx.each(func(sh *shard) {
		for doc, users := range sh.entries {
			for user, e := range users {
				if v.entries[doc] == nil {
					v.entries[doc] = map[string]*entry{}
				}
				v.entries[doc][user] = e
			}
		}
	})
	c.interMu.Lock()
	for k, e := range c.inter {
		if v.inter[e.doc] == nil {
			v.inter[e.doc] = map[string]*interEntry{}
		}
		v.inter[e.doc][k] = e
	}
	c.interMu.Unlock()
	return v
}

// universalAndPersonal counts a document's universal and personal cuts.
func universalAndPersonal(cuts map[string]*interEntry) (universal, personal int) {
	for _, e := range cuts {
		if e.user == "" {
			universal++
		} else {
			personal++
		}
	}
	return universal, personal
}

var indexDocs = []string{"alpha", "beta", "gamma"}

// indexWorld is a memoizing cache over three documents, each with a
// two-transform universal chain and a personal watermark for each of
// three users, all read once: per document, three entries, two
// universal cuts and three personal cuts.
func indexWorld(t *testing.T, opts Options) (*world, []string) {
	t.Helper()
	opts.Memoize = true
	w := newWorld(t, opts)
	users := memoUsers(3)
	for _, doc := range indexDocs {
		w.addDoc(t, doc, users[0], "/"+doc, append([]byte(doc+"\n"), memoContent...))
		for _, p := range []property.Active{property.NewSpellCorrector(time.Millisecond), property.NewLineNumberer(time.Millisecond)} {
			if err := w.space.Attach(doc, "", docspace.Universal, p); err != nil {
				t.Fatal(err)
			}
		}
		for i, u := range users {
			if i > 0 {
				if _, err := w.space.AddReference(doc, u); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.space.Attach(doc, u, docspace.Personal, property.NewWatermarker(u, 0)); err != nil {
				t.Fatal(err)
			}
			w.read(t, doc, u)
		}
	}
	v := resident(w.cache)
	for _, doc := range indexDocs {
		if u, p := universalAndPersonal(v.inter[doc]); len(v.entries[doc]) != 3 || u != 2 || p != 3 {
			t.Fatalf("warm-up of %q: %d entries, %d universal and %d personal cuts", doc, len(v.entries[doc]), u, p)
		}
	}
	checkIndex(t, w.cache)
	return w, users
}

// assertUntouched checks that doc's entries and intermediates are the
// very ones resident before.
func assertUntouched(t *testing.T, before, after residentView, doc string) {
	t.Helper()
	if len(after.entries[doc]) != len(before.entries[doc]) || len(after.inter[doc]) != len(before.inter[doc]) {
		t.Fatalf("%q changed: %d→%d entries, %d→%d intermediates", doc,
			len(before.entries[doc]), len(after.entries[doc]), len(before.inter[doc]), len(after.inter[doc]))
	}
	for user, e := range before.entries[doc] {
		if after.entries[doc][user] != e {
			t.Fatalf("entry %q/%q was replaced or dropped", doc, user)
		}
	}
	for k, e := range before.inter[doc] {
		if after.inter[doc][k] != e {
			t.Fatalf("an intermediate of %q was replaced or dropped", doc)
		}
	}
}

// TestIndexDocWideInvalidation: a content write (paper cause 1)
// removes all of the document's entries and its universal and personal
// cuts, and only those.
func TestIndexDocWideInvalidation(t *testing.T) {
	w, users := indexWorld(t, Options{})
	before := resident(w.cache)
	if err := w.cache.Write("beta", users[0], []byte("teh new beta\n")); err != nil {
		t.Fatal(err)
	}
	after := resident(w.cache)
	if len(after.entries["beta"]) != 0 || len(after.inter["beta"]) != 0 {
		t.Fatalf("beta keeps %d entries and %d intermediates", len(after.entries["beta"]), len(after.inter["beta"]))
	}
	assertUntouched(t, before, after, "alpha")
	assertUntouched(t, before, after, "gamma")
	if got := w.cache.Stats().Invalidations; got != 3 {
		t.Fatalf("Invalidations = %d, want 3", got)
	}
	checkIndex(t, w.cache)
}

// TestIndexPerUserInvalidation: a personal change removes that user's
// entry and personal cut; the document's universal cuts, its other
// users and every other document survive.
func TestIndexPerUserInvalidation(t *testing.T) {
	w, users := indexWorld(t, Options{})
	before := resident(w.cache)
	w.cache.Invalidate("beta", users[1])
	after := resident(w.cache)
	if _, ok := after.entries["beta"][users[1]]; ok || len(after.entries["beta"]) != 2 {
		t.Fatalf("beta entries after invalidating %s: %d", users[1], len(after.entries["beta"]))
	}
	for _, u := range []string{users[0], users[2]} {
		if after.entries["beta"][u] != before.entries["beta"][u] {
			t.Fatalf("beta/%s was touched", u)
		}
	}
	if u, p := universalAndPersonal(after.inter["beta"]); u != 2 || p != 2 {
		t.Fatalf("beta keeps %d universal and %d personal cuts, want 2 and 2", u, p)
	}
	for _, e := range after.inter["beta"] {
		if e.user == users[1] {
			t.Fatalf("%s's personal cut survived", users[1])
		}
	}
	assertUntouched(t, before, after, "alpha")
	assertUntouched(t, before, after, "gamma")
	checkIndex(t, w.cache)

	// Invalidating the remaining users one by one empties the
	// document's stripe slots without leaving empty maps behind.
	w.cache.Invalidate("beta", users[0])
	w.cache.Invalidate("beta", users[2])
	if after := resident(w.cache); len(after.entries["beta"]) != 0 {
		t.Fatalf("beta keeps %d entries", len(after.entries["beta"]))
	}
	checkIndex(t, w.cache)
}

// TestIndexEviction: capacity eviction splits each policy victim's
// composite key to find its entry, and prunes emptied slots in both
// the stripes and the side index.
func TestIndexEviction(t *testing.T) {
	w, _ := indexWorld(t, Options{Policy: replace.NewLRU()})
	total := w.cache.Stats().BytesStored
	w.cache.Resize(total / 2)
	if st := w.cache.Stats(); st.Evictions == 0 || st.BytesStored > total/2 {
		t.Fatalf("no eviction under half the budget: %+v", st)
	}
	checkIndex(t, w.cache)
	w.cache.Resize(1)
	if n, inter := w.cache.Len(), w.cache.Stats().IntermediateEntries; n != 0 || inter != 0 {
		t.Fatalf("a 1-byte budget keeps %d entries and %d intermediates", n, inter)
	}
	checkIndex(t, w.cache)
	for i := range w.cache.idx.shards {
		if n := len(w.cache.idx.shards[i].entries); n != 0 {
			t.Fatalf("stripe %d keeps %d document slots after evicting everything", i, n)
		}
	}
	if n := len(w.cache.interByDoc); n != 0 {
		t.Fatalf("side index keeps %d document slots after evicting everything", n)
	}
}

// TestIndexClose: Close and Kill clear both indexes.
func TestIndexClose(t *testing.T) {
	for _, kill := range []bool{false, true} {
		w, _ := indexWorld(t, Options{})
		if kill {
			w.cache.Kill()
		} else if err := w.cache.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range w.cache.idx.shards {
			if n := len(w.cache.idx.shards[i].entries); n != 0 {
				t.Fatalf("kill=%v: stripe %d keeps %d document slots", kill, i, n)
			}
		}
		if len(w.cache.inter) != 0 || len(w.cache.interByDoc) != 0 {
			t.Fatalf("kill=%v: %d intermediates, %d side-index slots", kill, len(w.cache.inter), len(w.cache.interByDoc))
		}
	}
}

// slowRead is a personal property whose read transform sleeps briefly
// on the real clock after the source bytes are read.
type slowRead struct{ property.Base }

func (slowRead) WrapInput(*property.ReadContext) stream.InputWrapper {
	return stream.WholeInput(func(b []byte) []byte {
		time.Sleep(20 * time.Microsecond)
		return b
	})
}

// TestIndexInstallInvalidateEvictRace interleaves installs of one
// document's entries on several stripes with content writes, direct
// document-wide invalidations and eviction. The generation bump still
// precedes the stripe visit and the install rechecks under its stripe
// lock, so no entry installed under an older generation survives: a
// read that starts after a write returned never sees an older version,
// and once everything stops every surviving entry holds the current
// content.
func TestIndexInstallInvalidateEvictRace(t *testing.T) {
	const users, readers, reads = 16, 4, 1000
	// Verifiers off: only the invalidations protect consistency, so a
	// stale install would be served.
	w := newWorld(t, Options{Memoize: true, Shards: 8, DisableVerifiers: true})
	w.addDoc(t, "d", "owner", "/d", []byte("teh d|v0\n"))
	if err := w.space.Attach("d", "", docspace.Universal, property.NewSpellCorrector(0)); err != nil {
		t.Fatal(err)
	}
	userID := func(i int) string { return fmt.Sprintf("u%02d", i) }
	stripes := map[*shard]bool{}
	for i := 0; i < users; i++ {
		if _, err := w.space.AddReference("d", userID(i)); err != nil {
			t.Fatal(err)
		}
		// Widen the window between reading the source and installing
		// the entry, so that writes land inside it.
		if err := w.space.Attach("d", userID(i), docspace.Personal, slowRead{property.Base{PropName: "slow-read"}}); err != nil {
			t.Fatal(err)
		}
		stripes[w.cache.idx.shardFor("d", userID(i))] = true
	}
	if len(stripes) < 2 {
		t.Fatalf("the document's keys span %d stripe(s), want several", len(stripes))
	}
	// The cache attaches its notifiers after a miss's first install, so
	// a write racing the document's very first reads is never notified
	// (verifiers catch that case when enabled). Warm every key before
	// the writer starts.
	for i := 0; i < users; i++ {
		w.read(t, "d", userID(i))
	}

	// Readers install; the writer, the invalidator and the evictor run
	// until every reader is done. written is the last version whose
	// Write (and with it the document's invalidation) has returned.
	// Each reader reads its own users, each twice in a row so that a
	// stale install would be hit at once: a read that joined another
	// reader's flight could legitimately receive a result fetched
	// before its own start.
	var written atomic.Int64
	version := func(body []byte) int64 {
		_, v, _ := strings.Cut(strings.TrimSpace(string(body)), "|v")
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Errorf("unexpected body %q", body)
		}
		return n
	}
	stop := make(chan struct{})
	var readersWG, churnWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < reads; i++ {
				u := userID(r + readers*rng.Intn(users/readers))
				for twice := 0; twice < 2; twice++ {
					floor := written.Load()
					body, err := w.cache.Read("d", u)
					if err != nil {
						t.Errorf("Read: %v", err)
						return
					}
					if v := version(body); v < floor {
						t.Errorf("%s read v%d after v%d was written", u, v, floor)
						return
					}
				}
			}
		}(r)
	}
	churn := func(step func(i int)) {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				step(i)
				runtime.Gosched()
			}
		}()
	}
	churn(func(i int) {
		if err := w.cache.Write("d", "owner", []byte(fmt.Sprintf("teh d|v%d\n", i+1))); err != nil {
			t.Errorf("Write: %v", err)
		}
		written.Store(int64(i + 1))
	})
	churn(func(int) { w.cache.InvalidateDoc("d") })
	churn(func(i int) {
		if i%2 == 0 {
			w.cache.Resize(64)
		} else {
			w.cache.Resize(0)
		}
	})
	readersWG.Wait()
	close(stop)
	churnWG.Wait()

	w.cache.Resize(0)
	checkIndex(t, w.cache)
	for i := 0; i < users; i++ {
		u := userID(i)
		sh := w.cache.idx.shardFor("d", u)
		sh.mu.Lock()
		e := sh.get("d", u)
		sh.mu.Unlock()
		if e == nil {
			continue
		}
		want, _, err := w.space.ReadDocument("d", u)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.cache.blobData(e.signature); !bytes.Equal(got, want) {
			t.Fatalf("%s's entry holds %q after the last write, want %q", u, got, want)
		}
	}
}

// BenchmarkInvalidateDoc measures a document-wide invalidation of one
// document with four entries among 100k unrelated entries: with the
// per-document index its cost is the document's entries, not the
// cache's.
func BenchmarkInvalidateDoc(b *testing.B) {
	w := newWorld(b, Options{})
	const unrelated = 100_000
	for i := 0; i < unrelated/10; i++ {
		doc := fmt.Sprintf("bg%05d", i)
		w.addDoc(b, doc, "u0", "/"+doc, []byte(doc))
		for u := 0; u < 10; u++ {
			user := fmt.Sprintf("u%d", u)
			if u > 0 {
				if _, err := w.space.AddReference(doc, user); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := w.cache.Read(doc, user); err != nil {
				b.Fatal(err)
			}
		}
	}
	w.addDoc(b, "hot", "u0", "/hot", []byte("hot body"))
	for u := 1; u < 4; u++ {
		if _, err := w.space.AddReference("hot", fmt.Sprintf("u%d", u)); err != nil {
			b.Fatal(err)
		}
	}
	if n := w.cache.Len(); n != unrelated {
		b.Fatalf("set-up cached %d entries, want %d", n, unrelated)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for u := 0; u < 4; u++ {
			if _, err := w.cache.Read("hot", fmt.Sprintf("u%d", u)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		w.cache.InvalidateDoc("hot")
	}
	b.StopTimer()
	if n := w.cache.Len(); n != unrelated {
		b.Fatalf("%d entries after invalidating hot, want %d", n, unrelated)
	}
}
