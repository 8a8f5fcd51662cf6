package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/store"
	"placeless/internal/stream"
)

// sigWorld is an origin document space, shared by every server a
// signature test starts over it.
type sigWorld struct {
	clk   *clock.Virtual
	src   *repo.Mem
	space *docspace.Space
}

func newSigWorld() *sigWorld {
	clk := clock.NewVirtual(epoch)
	return &sigWorld{
		clk:   clk,
		src:   repo.NewMem("src", clk, simnet.Local(1)),
		space: docspace.New(clk, nil),
	}
}

func (w *sigWorld) addDoc(t *testing.T, doc, owner string, body []byte) {
	t.Helper()
	path := "/" + doc
	if err := w.src.Store(path, body); err != nil {
		t.Fatal(err)
	}
	if _, err := w.space.CreateDocument(doc, owner, &property.RepoBitProvider{Repo: w.src, Path: path}); err != nil {
		t.Fatal(err)
	}
}

// serve starts srv on a loopback listener and returns a v2 client.
func (w *sigWorld) serve(t *testing.T, srv *Server) *Client {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server did not start")
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
	})
	return c
}

// cached starts an origin with a core cache built from opts.
func (w *sigWorld) cached(t *testing.T, opts core.Options) (*core.Cache, *Server, *Client) {
	t.Helper()
	cache := core.New(w.space, opts)
	t.Cleanup(func() { cache.Close() })
	srv := NewCached(w.space, w.src, cache)
	return cache, srv, w.serve(t, srv)
}

// readSigned reads over the wire and checks the signature oracle: the
// signature the origin sent is the MD5 of the body the client got.
func readSigned(t *testing.T, c *Client, doc, user string) []byte {
	t.Helper()
	data, meta, err := c.Read(doc, user)
	if err != nil {
		t.Fatalf("read %s/%s: %v", doc, user, err)
	}
	if want := sig.Of(data); meta.Signature != want {
		t.Fatalf("read %s/%s: signature %v, want sig.Of(body) = %v", doc, user, meta.Signature, want)
	}
	return data
}

// gatedProvider serves a fixed payload, parking every Open until
// release is closed.
type gatedProvider struct {
	payload []byte
	opens   atomic.Int64
	release chan struct{}
}

func (p *gatedProvider) Name() string { return "bits:gated" }

func (p *gatedProvider) Open(*property.ReadContext) (io.ReadCloser, error) {
	p.opens.Add(1)
	<-p.release
	return stream.BytesReader(p.payload), nil
}

func (p *gatedProvider) Create(*property.WriteContext) (io.WriteCloser, error) {
	return nil, fmt.Errorf("gated provider is read-only")
}

func (p *gatedProvider) ReadCurrent() ([]byte, error) { return append([]byte{}, p.payload...), nil }

// midReadWriter rewrites its document from inside the read path the
// first time it runs, so the read that carries it is invalidated
// mid-flight.
type midReadWriter struct {
	property.Base
	space *docspace.Space
	doc   string
	data  []byte
	fired bool
}

func (m *midReadWriter) WrapInput(*property.ReadContext) stream.InputWrapper {
	return stream.WholeInput(func(b []byte) []byte {
		if !m.fired {
			m.fired = true
			if err := m.space.WriteDocument(m.doc, "writer", m.data); err != nil {
				panic(err)
			}
		}
		return b
	})
}

// TestReadSignatureOracle: on every origin read path a v2 read carries
// the body's content signature, so the client tier never has to hash.
// Uncacheable reads carry the zero signature.
func TestReadSignatureOracle(t *testing.T) {
	body := []byte("signed once, at the origin")

	t.Run("installed miss then shared hit", func(t *testing.T) {
		w := newSigWorld()
		w.addDoc(t, "d", "u", body)
		cache, _, c := w.cached(t, core.Options{})
		readSigned(t, c, "d", "u")
		readSigned(t, c, "d", "u")
		if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 || !cache.Contains("d", "u") {
			t.Fatalf("stats = %+v, want one installed miss and one hit", st)
		}
	})

	t.Run("locked hit", func(t *testing.T) {
		// A configured hit cost makes ReadSharedHit decline, so the
		// hit runs through the handler and ReadWithInfo.
		w := newSigWorld()
		w.addDoc(t, "d", "u", body)
		cache, _, c := w.cached(t, core.Options{HitCost: time.Millisecond})
		readSigned(t, c, "d", "u")
		readSigned(t, c, "d", "u")
		if st := cache.Stats(); st.Hits != 1 {
			t.Fatalf("stats = %+v, want one hit", st)
		}
	})

	t.Run("memo miss", func(t *testing.T) {
		w := newSigWorld()
		w.addDoc(t, "d", "alice", []byte("teh first line\nteh second line\n"))
		if err := w.space.Attach("d", "", docspace.Universal, property.NewLineNumberer(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.space.AddReference("d", "bob"); err != nil {
			t.Fatal(err)
		}
		if err := w.space.Attach("d", "bob", docspace.Personal, property.NewSpellCorrector(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		cache, _, c := w.cached(t, core.Options{Memoize: true})
		a := readSigned(t, c, "d", "alice")
		b := readSigned(t, c, "d", "bob")
		if string(a) == string(b) {
			t.Fatalf("personal chain had no effect: %q", b)
		}
		if st := cache.Stats(); st.IntermediateHits != 1 {
			t.Fatalf("IntermediateHits = %d, want 1 (bob's read is a memo miss)", st.IntermediateHits)
		}
	})

	t.Run("disk promote", func(t *testing.T) {
		w := newSigWorld()
		w.addDoc(t, "d", "u", body)
		st, _, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		first, _, c1 := w.cached(t, core.Options{Store: st})
		readSigned(t, c1, "d", "u")
		if n := first.Stats().StoreDemotions; n != 1 {
			t.Fatalf("StoreDemotions = %d, want 1", n)
		}
		// A second origin over the same disk tier starts cold in memory
		// and serves the read by promotion.
		second, _, c2 := w.cached(t, core.Options{Store: st})
		readSigned(t, c2, "d", "u")
		if n := second.Stats().StorePromotions; n != 1 {
			t.Fatalf("StorePromotions = %d, want 1", n)
		}
	})

	t.Run("coalesced follower", func(t *testing.T) {
		w := newSigWorld()
		p := &gatedProvider{payload: body, release: make(chan struct{})}
		if _, err := w.space.CreateDocument("d", "u", p); err != nil {
			t.Fatal(err)
		}
		cache, srv, c := w.cached(t, core.Options{})
		var once sync.Once
		release := func() { once.Do(func() { close(p.release) }) }
		defer release()
		type result struct {
			data []byte
			meta ReadMeta
			err  error
		}
		results := make(chan result, 2)
		read := func() {
			data, meta, err := c.Read("d", "u")
			results <- result{data, meta, err}
		}
		waitUntil := func(what string, cond func() bool) {
			for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal(what)
				}
			}
		}
		go read()
		waitUntil("the leader never reached the bit provider", func() bool { return p.opens.Load() > 0 })
		go read()
		// The follower is counted when its handler starts; give it a
		// moment more to join the leader's flight before releasing.
		waitUntil("the follower never reached the handler", func() bool { req, _, _ := srv.Counters(); return req >= 2 })
		time.Sleep(50 * time.Millisecond)
		release()
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil {
				t.Fatal(r.err)
			}
			if want := sig.Of(r.data); r.meta.Signature != want {
				t.Fatalf("signature %v, want sig.Of(body) = %v", r.meta.Signature, want)
			}
		}
		if st := cache.Stats(); st.CoalescedMisses != 1 || p.opens.Load() != 1 {
			t.Fatalf("stats = %+v, opens = %d; want one coalesced follower", st, p.opens.Load())
		}
	})

	t.Run("cache-less server", func(t *testing.T) {
		w := newSigWorld()
		w.addDoc(t, "d", "u", body)
		c := w.serve(t, New(w.space, w.src))
		readSigned(t, c, "d", "u")
	})

	t.Run("read invalidated mid-flight", func(t *testing.T) {
		w := newSigWorld()
		w.addDoc(t, "d", "writer", []byte("v1"))
		if _, err := w.space.AddReference("d", "reader"); err != nil {
			t.Fatal(err)
		}
		cache, _, c := w.cached(t, core.Options{DisableVerifiers: true})
		// A clean first read installs the cache's notifiers.
		readSigned(t, c, "d", "reader")
		cache.Invalidate("d", "reader")
		trigger := &midReadWriter{Base: property.Base{PropName: "mid-read-writer"},
			space: w.space, doc: "d", data: []byte("v2")}
		if err := w.space.Attach("d", "reader", docspace.Personal, trigger); err != nil {
			t.Fatal(err)
		}
		if got := readSigned(t, c, "d", "reader"); string(got) != "v1" {
			t.Fatalf("mid-flight read = %q, want the pre-write snapshot", got)
		}
		if cache.Contains("d", "reader") {
			t.Fatal("the read invalidated mid-flight was installed")
		}
		if got := readSigned(t, c, "d", "reader"); string(got) != "v2" {
			t.Fatalf("next read = %q, want v2", got)
		}
	})

	t.Run("uncacheable carries zero", func(t *testing.T) {
		w := newSigWorld()
		feed := repo.NewLiveFeed("cam", w.clk, simnet.Local(2), 64)
		if _, err := w.space.CreateDocument("cam", "u", &property.RepoBitProvider{
			Repo: feed, Path: "/c", Vote: property.Uncacheable, DisableVerifier: true,
		}); err != nil {
			t.Fatal(err)
		}
		_, _, cached := w.cached(t, core.Options{})
		plain := w.serve(t, New(w.space, w.src))
		for name, c := range map[string]*Client{"cached": cached, "cache-less": plain} {
			_, meta, err := c.Read("cam", "u")
			if err != nil {
				t.Fatal(err)
			}
			if !meta.Signature.IsZero() {
				t.Fatalf("%s origin: uncacheable read carries signature %v", name, meta.Signature)
			}
		}
	})
}
