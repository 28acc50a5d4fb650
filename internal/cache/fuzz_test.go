package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCacheOpen writes arbitrary bytes as a store file and opens it both
// ways. Open and OpenReadOnly must agree: both refuse the file, or both
// load the same entries, every one of which passes validate. OpenReadOnly
// must leave the file untouched, and a second Open, after the first one
// repaired a torn tail, must load the same bests. The seed corpus lives
// in testdata/fuzz/FuzzCacheOpen; run the fuzzer with `make fuzz-smoke`.
func FuzzCacheOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ro, roErr := OpenReadOnly(path)
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("OpenReadOnly modified the file (read err %v)", err)
		}
		s, err := Open(path)
		if (err == nil) != (roErr == nil) {
			t.Fatalf("Open err %v, OpenReadOnly err %v", err, roErr)
		}
		if err != nil {
			return
		}
		for key, e := range s.entries {
			if err := e.validate(); err != nil {
				t.Fatalf("loaded invalid entry %q: %v", key, err)
			}
		}
		if !reflect.DeepEqual(s.entries, ro.entries) {
			t.Fatalf("Open and OpenReadOnly loaded different bests")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(path)
		if err != nil {
			t.Fatalf("second Open failed after the first succeeded: %v", err)
		}
		defer again.Close()
		if again.Len() != s.Len() || !reflect.DeepEqual(again.entries, s.entries) {
			t.Fatalf("second Open loaded %d bests, first %d", again.Len(), s.Len())
		}
	})
}
