package cache

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func testResult(t *testing.T) (Digest, *core.Result) {
	t.Helper()
	cfg, w := testPoint(t)
	r, err := core.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return mustDigest(t, cfg, w), r
}

func mustEncode(t *testing.T, r *core.Result) []byte {
	t.Helper()
	doc, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEncodeResultRoundTrip(t *testing.T) {
	_, r := testResult(t)
	first, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeResult(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeResult(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("re-encoding not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if *decoded != *r {
		t.Errorf("decoded result differs from original:\n%+v\nvs\n%+v", *decoded, *r)
	}
}

func TestDecodeResultRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"bogus_field_from_future_build":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	d, r := testResult(t)
	s := &store{dir: t.TempDir()}
	if _, ok := s.get(d); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.put(d, mustEncode(t, r)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.get(d)
	if !ok {
		t.Fatal("stored result not found")
	}
	a, err := EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("stored result differs from original after round-trip")
	}
}

// TestStoreSurvivesKillMidWrite simulates the crash modes the atomic-
// write discipline defends against: a truncated document under the final
// name (as if written non-atomically) and a stray temp file. Both must
// read as misses, and a subsequent put must repair the entry.
func TestStoreSurvivesKillMidWrite(t *testing.T) {
	d, r := testResult(t)
	s := &store{dir: t.TempDir()}
	if err := s.put(d, mustEncode(t, r)); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(s.path(d))
	if err != nil {
		t.Fatal(err)
	}

	// Kill mid-write, non-atomic writer: truncated document at the final
	// path.
	if err := os.WriteFile(s.path(d), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.get(d); ok {
		t.Error("truncated document reported as a hit")
	}
	if err := s.put(d, mustEncode(t, r)); err != nil {
		t.Fatalf("repairing put failed: %v", err)
	}
	if _, ok := s.get(d); !ok {
		t.Error("entry not repaired by re-put")
	}

	// Kill mid-write, atomic writer: stray temp file next to the entry.
	// Readers never look at it and it must not shadow the real document.
	stray := filepath.Join(filepath.Dir(s.path(d)), "stray.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.get(d); !ok {
		t.Error("stray temp file broke the read path")
	}
}

// TestStoreRejectsForeignDocuments: every defect degrades to a miss,
// never an error or a wrong result.
func TestStoreRejectsForeignDocuments(t *testing.T) {
	d, r := testResult(t)
	s := &store{dir: t.TempDir()}
	write := func(content []byte) {
		t.Helper()
		path := s.path(d)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write([]byte(`{"hello":"world"}`))
	if _, ok := s.get(d); ok {
		t.Error("foreign JSON reported as a hit")
	}

	// A document stored for a different digest (file moved or copied
	// between entries) must not resolve.
	if err := s.put(d, mustEncode(t, r)); err != nil {
		t.Fatal(err)
	}
	moved, err := os.ReadFile(s.path(d))
	if err != nil {
		t.Fatal(err)
	}
	var other Digest
	other[0] = d[0] // same shard prefix, different identity
	other[1] = ^d[1]
	so := &store{dir: s.dir}
	path := so.path(other)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, moved, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := so.get(other); ok {
		t.Error("document moved between digests reported as a hit")
	}

	// A wrong schema version must not resolve.
	write(bytes.Replace(moved, []byte(ResultSchema), []byte("hyve/result/v0"), 1))
	if _, ok := s.get(d); ok {
		t.Error("wrong-schema document reported as a hit")
	}
}

// A put never recreates a removed root: it fails, and nothing appears
// where the root was. A hyve-check point abandoned past its timeout used
// to recreate its swept-away cache directory this way. A root that does
// not exist yet is still created, once, by New.
func TestPutDoesNotRecreateRemovedRoot(t *testing.T) {
	d, r := testResult(t)
	root := filepath.Join(t.TempDir(), "not", "yet", "cache")
	s := New(Config{Dir: root})
	if err := s.disk.put(d, mustEncode(t, r)); err != nil {
		t.Fatalf("put under a root New created: %v", err)
	}
	if _, ok := s.disk.get(d); !ok {
		t.Fatal("stored result missing")
	}
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := s.disk.put(d, mustEncode(t, r)); err == nil {
		t.Error("put under a removed root succeeded")
	}
	if _, err := os.Stat(root); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("removed root reappeared after a put (stat: %v)", err)
	}
}
