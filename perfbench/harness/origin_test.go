package harness

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"webcache/internal/trace"
)

func TestOriginServesTraceDocuments(t *testing.T) {
	o := NewOrigin([]trace.Request{
		{URL: "http://a.example/x.gif", Size: 3000},
		{URL: "http://b.example/cgi-bin/q?1", Size: 10},
	})
	srv := httptest.NewServer(o)
	defer srv.Close()
	get := func(host, uri string, ims string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+uri, nil)
		req.Host = host
		if ims != "" {
			req.Header.Set("If-Modified-Since", ims)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("a.example", "/x.gif", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(body, o.Body(3000)) {
		t.Fatalf("GET x.gif: status %d, %d bytes, want 200 and the pattern's first 3000", resp.StatusCode, len(body))
	}
	lm := resp.Header.Get("Last-Modified")
	if resp = get("a.example", "/x.gif", lm); resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET: status %d, want 304", resp.StatusCode)
	}
	resp.Body.Close()
	if resp = get("b.example", "/cgi-bin/q?1", ""); resp.StatusCode != 200 || resp.ContentLength != 10 {
		t.Errorf("dynamic URL: status %d, length %d", resp.StatusCode, resp.ContentLength)
	}
	resp.Body.Close()
	if resp = get("c.example", "/none", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown URL: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if o.OK.Load() != 2 || o.NotModified.Load() != 1 || o.NotFound.Load() != 1 {
		t.Errorf("counters ok=%d 304=%d 404=%d, want 2 1 1", o.OK.Load(), o.NotModified.Load(), o.NotFound.Load())
	}
	if bytes.Equal(o.Body(100)[:50], o.Body(100)[50:]) {
		t.Error("pattern repeats within 100 bytes")
	}
}
