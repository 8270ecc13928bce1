package cache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/obs"
)

// ResultSchema identifies the on-disk result document format. Bump on
// any breaking change to the serialized shape of core.Result.
const ResultSchema = "hyve/result/v1"

// EncodeResult renders a result as its canonical JSON document: struct-
// ordered fields, no indentation, trailing newline. Equal results encode
// to equal bytes, and decoding then re-encoding is byte-stable (floats
// round-trip exactly through Go's shortest-form formatting), which is
// what lets the cache-hit-identity invariant compare a disk hit against
// a fresh execution byte for byte.
func EncodeResult(r *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("cache: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeResult parses a canonical result document strictly: unknown
// fields — a result written by a build with a different shape — are an
// error, never silently dropped.
func DecodeResult(data []byte) (*core.Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r core.Result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("cache: decoding result: %w", err)
	}
	return &r, nil
}

// diskDoc is the stored document: the schema and the digest the result
// was computed for wrap the payload, so a file moved between digests or
// written by an incompatible build is detected on read.
type diskDoc struct {
	Schema string          `json:"schema"`
	Digest string          `json:"digest"`
	Result json.RawMessage `json:"result"`
}

// store is the on-disk content-addressed result store: one JSON document
// per digest under dir/<first two hex chars>/<digest>.json. Writes are
// atomic (obs.WriteAtomic: temp + fsync + rename), so a process killed
// mid-write leaves only a stray temp file readers never look at — any
// file that exists under its final name decodes or is treated as a miss.
// The root is created once, by newStore; a put never recreates it, so a
// removed root stays removed and the store then only misses.
type store struct {
	dir string
}

// newStore opens the store rooted at dir, creating the root if it does
// not exist yet. A root that cannot be created is not fatal: every put
// then fails, and the store degrades to misses.
func newStore(dir string) *store {
	_ = os.MkdirAll(dir, 0o755)
	return &store{dir: dir}
}

func (s *store) path(d Digest) string {
	hex := d.String()
	return filepath.Join(s.dir, hex[:2], hex+".json")
}

// get loads the result stored for d. Any defect — missing file,
// truncated or foreign document, schema or digest mismatch, undecodable
// payload — is a miss, never an error: the cache must degrade to
// re-execution, not fail the run.
func (s *store) get(d Digest) (*core.Result, bool) {
	data, err := os.ReadFile(s.path(d))
	if err != nil {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc diskDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, false
	}
	if doc.Schema != ResultSchema || doc.Digest != d.String() {
		return nil, false
	}
	r, err := DecodeResult(doc.Result)
	if err != nil {
		return nil, false
	}
	return r, true
}

// put stores payload, the canonical document (EncodeResult) of d's
// result, atomically: it wraps the payload and encodes no result.
// Errors are returned so drivers can surface a broken cache directory,
// but callers treat the store as best-effort: a failed put only costs a
// future re-execution.
func (s *store) put(d Digest, payload []byte) error {
	path := s.path(d)
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("cache: %w", err)
	}
	doc := diskDoc{Schema: ResultSchema, Digest: d.String(), Result: bytes.TrimRight(payload, "\n")}
	return obs.WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&doc); err != nil {
			return fmt.Errorf("cache: encoding store document: %w", err)
		}
		return nil
	})
}
