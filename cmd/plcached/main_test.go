package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"placeless/internal/remote"
)

// fakeDocCache is an in-memory docCache; err, when set, fails every
// call.
type fakeDocCache struct {
	docs   map[string][]byte
	err    error
	writes int
}

func (f *fakeDocCache) Read(doc, user string) ([]byte, error) {
	if f.err != nil {
		return nil, f.err
	}
	data, ok := f.docs[doc+"/"+user]
	if !ok {
		return nil, fmt.Errorf("no document %s", doc)
	}
	return data, nil
}

func (f *fakeDocCache) Write(doc, user string, data []byte) error {
	if f.err != nil {
		return f.err
	}
	f.writes++
	f.docs[doc+"/"+user] = data
	return nil
}

func TestDocHandler(t *testing.T) {
	cases := []struct {
		name       string
		method     string
		body       []byte
		err        error
		wantStatus int
		wantBody   string // GET only
		wantWrites int
		retryAfter string
	}{
		{name: "get", method: http.MethodGet, wantStatus: http.StatusOK, wantBody: "stored"},
		{name: "put", method: http.MethodPut, body: []byte("new"), wantStatus: http.StatusNoContent, wantWrites: 1},
		{name: "oversized put", method: http.MethodPut, body: make([]byte, maxBodyBytes+1), wantStatus: http.StatusRequestEntityTooLarge},
		{name: "degraded get", method: http.MethodGet, err: remote.ErrDegraded, wantStatus: http.StatusServiceUnavailable, retryAfter: "1"},
		{name: "degraded put", method: http.MethodPut, body: []byte("new"), err: remote.ErrDegraded, wantStatus: http.StatusServiceUnavailable, retryAfter: "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc := &fakeDocCache{docs: map[string][]byte{"d/u": []byte("stored")}, err: tc.err}
			rec := httptest.NewRecorder()
			docHandler(dc).ServeHTTP(rec, httptest.NewRequest(tc.method, "/doc/d?user=u", bytes.NewReader(tc.body)))
			resp := rec.Result()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, tc.wantStatus)
			}
			if tc.wantBody != "" && string(body) != tc.wantBody {
				t.Fatalf("body = %q, want %q", body, tc.wantBody)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After = %q, want %q", got, tc.retryAfter)
			}
			if dc.writes != tc.wantWrites {
				t.Fatalf("writes = %d, want %d", dc.writes, tc.wantWrites)
			}
			if tc.wantWrites > 0 && !bytes.Equal(dc.docs["d/u"], tc.body) {
				t.Fatalf("stored %q, want %q", dc.docs["d/u"], tc.body)
			}
		})
	}
}
