package docspace

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"placeless/internal/property"
	"placeless/internal/sig"
)

// fakeMemo is a minimal Intermediates store for exercising the staged
// read path without a cache, with optional fault injection for the
// degraded-read tests.
type fakeMemo struct {
	store    map[string][]byte
	keys     []string // install order, one per computed cut
	cuts     []Cut    // every cut offered, in order
	computes int
	failOn   int // fail the nth PrefixIntermediate call (1-based)
}

func newFakeMemo() *fakeMemo { return &fakeMemo{store: make(map[string][]byte)} }

func memoKey(src, fp sig.Signature) string {
	return string(src[:]) + string(fp[:])
}

var errStoreSick = errors.New("intermediate store unavailable")

func (m *fakeMemo) LongestPrefix(doc string, src sig.Signature, fps []sig.Signature) ([]byte, int, bool) {
	for i := len(fps) - 1; i >= 0; i-- {
		if d, ok := m.store[memoKey(src, fps[i])]; ok {
			return append([]byte{}, d...), i, true
		}
	}
	return nil, -1, false
}

func (m *fakeMemo) PrefixIntermediate(doc, user string, src sig.Signature, cut Cut, compute func() ([]byte, error)) ([]byte, bool, error) {
	m.cuts = append(m.cuts, cut)
	if m.failOn > 0 && len(m.cuts) == m.failOn {
		return nil, false, errStoreSick
	}
	k := memoKey(src, cut.FP)
	if d, ok := m.store[k]; ok {
		return append([]byte{}, d...), true, nil
	}
	d, err := compute()
	if err != nil {
		return nil, false, err
	}
	m.computes++
	m.store[k] = append([]byte{}, d...)
	m.keys = append(m.keys, k)
	return d, false, nil
}

// assertNoCutFrom fails if any cut offered to m lies at or after the
// end of the universal chain — the cuts a non-memoizable last universal
// property poisons.
func assertNoCutFrom(t *testing.T, m *fakeMemo) {
	t.Helper()
	for i, c := range m.cuts {
		if c.Universal || c.Personal {
			t.Fatalf("cut %d (%+v) at or after the poisoning property reached the store", i, c)
		}
	}
}

// stageFixture builds a document with a memoizable universal chain
// (spell correct, then summarize) and a personal watermark for each of
// two users.
func stageFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("teh first line is recieve\nsecond line\nthird line\nfourth line\n"))
	if err := f.space.Attach("d", "", Universal, property.NewSpellCorrector(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "", Universal, property.NewSummarizer(3, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "eyal", Personal, property.NewWatermarker("eyal", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.space.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "paul", Personal, property.NewWatermarker("paul", 0)); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) fingerprint(t *testing.T, doc string) sig.Signature {
	t.Helper()
	fp, err := f.space.UniversalFingerprint(doc)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFingerprintStableAcrossReads(t *testing.T) {
	f := stageFixture(t)
	fp1 := f.fingerprint(t, "d")
	if _, _, err := f.space.ReadDocument("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	if fp2 := f.fingerprint(t, "d"); fp2 != fp1 {
		t.Fatal("fingerprint changed without a chain mutation")
	}
}

// TestFingerprintBumpsOnChainMutations is the regression guard for the
// paper's invalidation causes 2 and 3: every mutation of the universal
// chain must move the fingerprint, so previously memoized intermediates
// become unreachable.
func TestFingerprintBumpsOnChainMutations(t *testing.T) {
	f := stageFixture(t)
	fp := f.fingerprint(t, "d")

	// Cause 2: attach.
	if err := f.space.Attach("d", "", Universal, property.NewLineNumberer(0)); err != nil {
		t.Fatal(err)
	}
	fpAttach := f.fingerprint(t, "d")
	if fpAttach == fp {
		t.Fatal("Attach did not change the fingerprint")
	}

	// Cause 2: replace (the spelling-corrector upgrade).
	upgraded := property.NewSpellCorrector(time.Millisecond)
	upgraded.Version = 2
	if err := f.space.Replace("d", "", Universal, "spell-correct", upgraded); err != nil {
		t.Fatal(err)
	}
	fpReplace := f.fingerprint(t, "d")
	if fpReplace == fpAttach {
		t.Fatal("Replace did not change the fingerprint")
	}

	// Cause 3: reorder.
	if err := f.space.Reorder("d", "", Universal, []string{"summarize-3", "spell-correct", "line-number"}); err != nil {
		t.Fatal(err)
	}
	fpReorder := f.fingerprint(t, "d")
	if fpReorder == fpReplace {
		t.Fatal("Reorder did not change the fingerprint")
	}

	// Cause 2: detach.
	if err := f.space.Detach("d", "", Universal, "line-number"); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") == fpReorder {
		t.Fatal("Detach did not change the fingerprint")
	}
}

func TestFingerprintIsContentDefined(t *testing.T) {
	// The fingerprint digests the chain, it is not a counter: undoing
	// a reorder restores the original value, making the old
	// intermediates correctly reachable again.
	f := stageFixture(t)
	fp := f.fingerprint(t, "d")
	if err := f.space.Reorder("d", "", Universal, []string{"summarize-3", "spell-correct"}); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") == fp {
		t.Fatal("reorder did not change the fingerprint")
	}
	if err := f.space.Reorder("d", "", Universal, []string{"spell-correct", "summarize-3"}); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") != fp {
		t.Fatal("restoring the order did not restore the fingerprint")
	}
}

func TestFingerprintIgnoresPersonalAndMachinery(t *testing.T) {
	f := stageFixture(t)
	fp := f.fingerprint(t, "d")

	if err := f.space.Attach("d", "paul", Personal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") != fp {
		t.Fatal("personal attachment changed the universal fingerprint")
	}

	machinery := testMachinery{property.Base{PropName: "notifier:test"}}
	if err := f.space.Attach("d", "", Universal, machinery); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") != fp {
		t.Fatal("cache machinery changed the universal fingerprint")
	}
}

// testMachinery is a stand-in for cache-installed plumbing.
type testMachinery struct{ property.Base }

func (testMachinery) CacheMachinery() {}

func TestStagedReadMatchesPlainRead(t *testing.T) {
	f := stageFixture(t)
	memo := newFakeMemo()
	for _, user := range []string{"eyal", "paul", "eyal"} {
		plain, plainRes, err := f.space.ReadDocument("d", user)
		if err != nil {
			t.Fatal(err)
		}
		staged, stagedRes, trace, err := f.space.ReadDocumentStaged("d", user, memo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, staged) {
			t.Fatalf("user %s: staged read diverged:\nplain:  %q\nstaged: %q", user, plain, staged)
		}
		if !trace.Attempted {
			t.Fatalf("user %s: memoizable chain not attempted", user)
		}
		// WrapInput runs on every read in both modes, so the
		// cache-facing result must be identical.
		if plainRes.Cacheability != stagedRes.Cacheability || plainRes.Cost != stagedRes.Cost {
			t.Fatalf("user %s: read results diverged: %+v vs %+v", user, plainRes, stagedRes)
		}
	}
	// One compute per distinct cut — spell, summarize (the boundary)
	// and each user's watermark; the repeat read resumes from its
	// deepest cut and computes nothing.
	if memo.computes != 4 {
		t.Fatalf("staged reads computed %d segments for 3 reads, want 4 (each cut once)", memo.computes)
	}
}

func TestStagedReadSavesUniversalTime(t *testing.T) {
	// On an intermediate hit the universal transforms' simulated
	// execution time is not charged; the personal suffix's is.
	f := stageFixture(t)
	memo := newFakeMemo()
	if _, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", memo); err != nil || trace.Hit {
		t.Fatalf("warm-up: trace=%+v err=%v", trace, err)
	}
	start := f.clk.Now()
	_, _, trace, err := f.space.ReadDocumentStaged("d", "paul", memo)
	if err != nil || !trace.Hit {
		t.Fatalf("trace=%+v err=%v", trace, err)
	}
	elapsedHit := f.clk.Now().Sub(start)
	// The two universal transforms charge 1ms each when executed;
	// a hit must skip both.
	if elapsedHit >= 2*time.Millisecond {
		t.Fatalf("intermediate hit still charged universal time: %v", elapsedHit)
	}
	if trace.SavedBytes <= 0 {
		t.Fatalf("SavedBytes = %d on a hit", trace.SavedBytes)
	}
}

// TestNonMemoizablePropertyDisablesStaging: a byte-touching property
// without a memo contract disables staging from its position on. Cuts
// before it still reach the store; none at or after it does, and the
// property runs on every read.
func TestNonMemoizablePropertyDisablesStaging(t *testing.T) {
	f := stageFixture(t)
	// A byte-touching universal property without a memo contract: a
	// hand-built transformer (no MemoID), the cautious default.
	runs := 0
	opaque := &property.Transformer{
		Base: property.Base{PropName: "opaque"},
		ReadTransform: func(b []byte) []byte {
			runs++
			return bytes.ToUpper(b)
		},
		Version: 1,
	}
	if err := f.space.Attach("d", "", Universal, opaque); err != nil {
		t.Fatal(err)
	}
	memo := newFakeMemo()
	for _, user := range []string{"eyal", "paul", "eyal"} {
		plain, _, err := f.space.ReadDocument("d", user)
		if err != nil {
			t.Fatal(err)
		}
		before := runs
		staged, _, trace, err := f.space.ReadDocumentStaged("d", user, memo)
		if err != nil {
			t.Fatal(err)
		}
		if runs != before+1 {
			t.Fatalf("user %s: opaque property ran %d times in a staged read, want 1", user, runs-before)
		}
		if trace.Hit {
			t.Fatalf("user %s: poisoned boundary reported a memo hit: %+v", user, trace)
		}
		if !bytes.Equal(plain, staged) {
			t.Fatalf("user %s: staged read diverged: %q vs %q", user, plain, staged)
		}
	}
	assertNoCutFrom(t, memo)
	// The two cuts before the poisoning property survive.
	if len(memo.store) != 2 {
		t.Fatalf("store holds %d cuts, want 2 (spell, summarize)", len(memo.store))
	}
}

// TestExternalInfoDisablesStaging: paper invalidation cause 4 — a
// property embedding external information must re-execute on every
// read, so a changed value shows up although earlier cuts are cached.
func TestExternalInfoDisablesStaging(t *testing.T) {
	f := stageFixture(t)
	quote := property.NewExternalVar("stock", 42)
	if err := f.space.Attach("d", "", Universal, property.NewExternalInfo(quote, property.ByVerifier, 0)); err != nil {
		t.Fatal(err)
	}
	memo := newFakeMemo()
	var prev []byte
	for _, value := range []float64{42, 43} {
		quote.Set(value)
		plain, _, err := f.space.ReadDocument("d", "eyal")
		if err != nil {
			t.Fatal(err)
		}
		staged, _, _, err := f.space.ReadDocumentStaged("d", "eyal", memo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, staged) {
			t.Fatalf("value %v: staged read diverged: %q vs %q", value, plain, staged)
		}
		if bytes.Equal(staged, prev) {
			t.Fatalf("value %v: staged read served the previous external value", value)
		}
		prev = staged
	}
	assertNoCutFrom(t, memo)
}

func TestStagedReadWithNilMemoFallsBack(t *testing.T) {
	f := stageFixture(t)
	plain, _, err := f.space.ReadDocument("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	staged, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Attempted {
		t.Fatal("nil store must disable staging")
	}
	if !bytes.Equal(plain, staged) {
		t.Fatalf("nil-store fallback diverged: %q vs %q", plain, staged)
	}
}

// TestContentKeyTracksEveryInvalidationCause pins the durable tier's
// promotion check: the content key must change exactly when one of the
// paper's key-visible invalidation causes fires — content written
// (source half), chain mutated at either level (fingerprint halves) —
// and must stay bit-identical across reads that change nothing.
func TestContentKeyTracksEveryInvalidationCause(t *testing.T) {
	f := stageFixture(t)
	k1, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Memoizable {
		t.Fatal("fully memoizable chain reported non-memoizable")
	}
	if _, _, err := f.space.ReadDocument("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	k2, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("content key drifted without a mutation: %+v vs %+v", k1, k2)
	}

	// Different users share source and universal halves but differ in
	// the personal fingerprint (distinct watermark chains).
	kPaul, err := f.space.ContentKey("d", "paul")
	if err != nil {
		t.Fatal(err)
	}
	if kPaul.SourceSig != k1.SourceSig || kPaul.UniversalFP != k1.UniversalFP {
		t.Fatal("universal key halves differ across users")
	}
	if kPaul.PersonalFP == k1.PersonalFP {
		t.Fatal("distinct personal chains share a personal fingerprint")
	}

	// Cause 1: content written through the repository.
	f.src.Store("/d", []byte("entirely new content\n"))
	k3, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k3.SourceSig == k1.SourceSig {
		t.Fatal("source signature unchanged after a content write")
	}
	if k3.UniversalFP != k1.UniversalFP || k3.PersonalFP != k1.PersonalFP {
		t.Fatal("content write moved a fingerprint half")
	}

	// Cause 2 at the universal level.
	if err := f.space.Attach("d", "", Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	k4, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k4.UniversalFP == k3.UniversalFP {
		t.Fatal("universal fingerprint unchanged after a universal attach")
	}
	if k4.PersonalFP != k3.PersonalFP {
		t.Fatal("universal attach moved the personal fingerprint")
	}

	// Cause 2 at the personal level.
	if err := f.space.Attach("d", "eyal", Personal, property.NewLineNumberer(0)); err != nil {
		t.Fatal(err)
	}
	k5, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k5.PersonalFP == k4.PersonalFP {
		t.Fatal("personal fingerprint unchanged after a personal attach")
	}
	if k5.UniversalFP != k4.UniversalFP {
		t.Fatal("personal attach moved the universal fingerprint")
	}
}

// TestContentKeyNonMemoizablePersonal: a byte-touching personal
// property without a memo contract poisons the whole key — results
// transformed by it must never be persisted.
func TestContentKeyNonMemoizablePersonal(t *testing.T) {
	f := stageFixture(t)
	opaque := &property.Transformer{
		Base:          property.Base{PropName: "opaque-personal"},
		ReadTransform: func(b []byte) []byte { return b },
		Version:       1,
	}
	if err := f.space.Attach("d", "eyal", Personal, opaque); err != nil {
		t.Fatal(err)
	}
	k, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k.Memoizable {
		t.Fatal("non-memoizable personal transform left the key memoizable")
	}
	// The other user's chain is untouched and stays provable.
	kPaul, err := f.space.ContentKey("d", "paul")
	if err != nil {
		t.Fatal(err)
	}
	if !kPaul.Memoizable {
		t.Fatal("unrelated user's key poisoned")
	}
}
