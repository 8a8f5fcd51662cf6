package core

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// hitProbe is a read-path property whose verifier the hit-contract test
// steers: it rejects while reject is set and, when replace is set,
// runs it once mid-verification before passing.
type hitProbe struct {
	property.Base
	reject  bool
	replace func()
}

func (p *hitProbe) WrapInput(rc *property.ReadContext) stream.InputWrapper {
	rc.AddVerifier(property.FuncVerifier{VerifierName: "probe", Fn: func(time.Time) (bool, error) {
		if f := p.replace; f != nil {
			p.replace = nil
			f()
		}
		return !p.reject, nil
	}})
	return nil
}

// hitDelta is the counter movement one read entry point caused.
type hitDelta struct{ hits, misses, rejects, forwarded int64 }

func deltaOf(a, b Stats) hitDelta {
	return hitDelta{
		hits:      b.Hits - a.Hits,
		misses:    b.Misses - a.Misses,
		rejects:   b.VerifierRejects - a.VerifierRejects,
		forwarded: b.EventsForwarded - a.EventsForwarded,
	}
}

// TestHitContractSharedVersusFallback pins the two hit entry points
// against each other on identical fixtures: ReadSharedHit serves only
// clean, uncharged hits and leaves every other outcome — counters and
// the entry included — to the ReadWithInfo fallback, which owns
// rejection accounting and the miss.
func TestHitContractSharedVersusFallback(t *testing.T) {
	body := []byte("contract body\n")
	cases := []struct {
		name    string
		opts    Options
		warm    bool
		prepare func(t *testing.T, w *world)              // before the warm-up read
		arrange func(w *world, p *hitProbe)               // before the shared probe
		between func(t *testing.T, w *world, p *hitProbe) // before the fallback

		sharedOK   bool
		shared     hitDelta
		keptEntry  bool // entry installed after the shared probe
		wantErr    error
		fallbackOK bool // ReadWithInfo reports a hit
		fallback   hitDelta
	}{
		{
			name:     "absent",
			fallback: hitDelta{misses: 1},
		},
		{
			name:       "clean hit",
			warm:       true,
			sharedOK:   true,
			shared:     hitDelta{hits: 1},
			keptEntry:  true,
			fallbackOK: true,
			fallback:   hitDelta{hits: 1},
		},
		{
			name:      "verifier rejects",
			warm:      true,
			arrange:   func(w *world, p *hitProbe) { p.reject = true },
			keptEntry: true,
			fallback:  hitDelta{misses: 1, rejects: 1},
		},
		{
			name: "entry replaced during verification",
			warm: true,
			arrange: func(w *world, p *hitProbe) {
				p.replace = func() { w.cache.Invalidate("d", "eyal") }
			},
			between: func(t *testing.T, w *world, p *hitProbe) {
				w.read(t, "d", "eyal")
				p.replace = func() { w.cache.Invalidate("d", "eyal") }
			},
			fallback: hitDelta{misses: 1},
		},
		{
			name: "cache with events",
			warm: true,
			prepare: func(t *testing.T, w *world) {
				if err := w.space.Attach("d", "", docspace.Universal, property.NewAuditTrail()); err != nil {
					t.Fatal(err)
				}
			},
			sharedOK:   true,
			shared:     hitDelta{hits: 1, forwarded: 1},
			keptEntry:  true,
			fallbackOK: true,
			fallback:   hitDelta{hits: 1, forwarded: 1},
		},
		{
			name:       "hit cost",
			opts:       Options{HitCost: time.Millisecond},
			warm:       true,
			keptEntry:  true,
			fallbackOK: true,
			fallback:   hitDelta{hits: 1},
		},
		{
			name:    "closed",
			warm:    true,
			arrange: func(w *world, p *hitProbe) { w.cache.Close() },
			wantErr: ErrClosed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.opts)
			w.addDoc(t, "d", "eyal", "/d", body)
			p := &hitProbe{Base: property.Base{PropName: "probe"}}
			if err := w.space.Attach("d", "", docspace.Universal, p); err != nil {
				t.Fatal(err)
			}
			if tc.prepare != nil {
				tc.prepare(t, w)
			}
			if tc.warm {
				w.read(t, "d", "eyal")
			}
			if tc.arrange != nil {
				tc.arrange(w, p)
			}

			s0 := w.cache.Stats()
			shared, sinfo, ok := w.cache.ReadSharedHit("d", "eyal")
			s1 := w.cache.Stats()
			if ok != tc.sharedOK {
				t.Fatalf("ReadSharedHit ok = %v, want %v", ok, tc.sharedOK)
			}
			if got := deltaOf(s0, s1); got != tc.shared {
				t.Fatalf("ReadSharedHit moved counters by %+v, want %+v", got, tc.shared)
			}
			if got := w.cache.Contains("d", "eyal"); got != tc.keptEntry {
				t.Fatalf("entry installed after ReadSharedHit = %v, want %v", got, tc.keptEntry)
			}
			if ok {
				if !sinfo.Hit || sinfo.Signature != sig.Of(shared) {
					t.Fatalf("shared info = %+v, want a hit under the body's signature", sinfo)
				}
				if !sinfo.BodyCRCOK || sinfo.BodyCRC32C != crc32.Checksum(shared, castagnoliTable) {
					t.Fatalf("shared CRC = %#x (ok %v), want the body's CRC-32C", sinfo.BodyCRC32C, sinfo.BodyCRCOK)
				}
			}

			if tc.between != nil {
				tc.between(t, w, p)
			}
			start := w.clk.Now()
			s1 = w.cache.Stats()
			data, info, err := w.cache.ReadWithInfo("d", "eyal")
			s2 := w.cache.Stats()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("ReadWithInfo err = %v, want %v", err, tc.wantErr)
			}
			if info.Hit != tc.fallbackOK {
				t.Fatalf("ReadWithInfo hit = %v, want %v", info.Hit, tc.fallbackOK)
			}
			if got := deltaOf(s1, s2); got != tc.fallback {
				t.Fatalf("ReadWithInfo moved counters by %+v, want %+v", got, tc.fallback)
			}
			if err != nil {
				return
			}
			if !bytes.Equal(data, body) {
				t.Fatalf("ReadWithInfo = %q, want %q", data, body)
			}
			if ok && (!bytes.Equal(shared, data) || sinfo.Signature != info.Signature) {
				t.Fatalf("entry points disagree: shared %q/%x, fallback %q/%x", shared, sinfo.Signature, data, info.Signature)
			}
			if tc.opts.HitCost > 0 && w.clk.Now().Sub(start) < tc.opts.HitCost {
				t.Fatal("fallback hit did not charge HitCost")
			}
		})
	}
}

// TestReadSharedHitAllocatesNothing: the shared hit path hands out the
// blob bytes as stored and builds no key string — the stripe is chosen
// by hashing (doc, user) in place, the nested table is probed by doc
// then user, and the policy is touched under the entry's stored key —
// so a hit allocates nothing.
func TestReadSharedHitAllocatesNothing(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("warm body"))
	w.read(t, "d", "eyal")
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := w.cache.ReadSharedHit("d", "eyal"); !ok {
			t.Fatal("warm entry not served")
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadSharedHit allocated %.1f times per hit, want 0", allocs)
	}
}
