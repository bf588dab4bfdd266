package cache

import (
	"fmt"
	"testing"
	"time"

	"webcachesim/internal/policy"
	"webcachesim/internal/pool"
)

// TestPooledEntryReleasesBufferOnLastRef pins the core refcount contract:
// the pooled buffer goes back to its pool only when the final reference —
// regardless of who holds it — is dropped.
func TestPooledEntryReleasesBufferOnLastRef(t *testing.T) {
	p := pool.New()
	buf := p.Get(1024)
	copy(buf.B, "hello")
	doc := &policy.Doc{Key: "k", Size: 5}
	e := NewPooledEntry(doc, buf, 5, "text/plain", 200, time.Time{})

	if string(e.Body) != "hello" {
		t.Fatalf("Body = %q; want %q", e.Body, "hello")
	}
	e.Acquire() // a second holder
	e.Release() // creator done
	if got := p.Stats().Outstanding(); got != 1 {
		t.Fatalf("buffer returned while a reference was live (outstanding = %d)", got)
	}
	if string(e.Body) != "hello" {
		t.Fatalf("Body corrupted while referenced: %q", e.Body)
	}
	e.Release() // last holder done
	if got := p.Stats().Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after last release; want 0", got)
	}
	if e.Body != nil {
		t.Fatal("Body must be nil after the last release")
	}
}

// TestCacheLifecycleReleasesPooledBodies drives pooled entries through
// insert, replacement, eviction, and removal, and checks every pooled
// buffer is back in the pool once the cache lets go and the creator
// references are dropped.
func TestCacheLifecycleReleasesPooledBodies(t *testing.T) {
	p := pool.New()
	c, err := New(Config{Capacity: 4096, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(key string) {
		buf := p.Get(1024)
		doc := &policy.Doc{Key: key, Size: 1024}
		e := NewPooledEntry(doc, buf, 1024, "", 200, time.Time{})
		c.Insert(key, e)
		e.Release() // creator's reference; the cache holds its own
	}
	insert("a")
	insert("a") // replacement releases the superseded body
	insert("b")
	insert("c")
	insert("d")
	insert("e") // capacity 4 objects: forces an eviction
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d; want 4", got)
	}
	if got := p.Stats().Outstanding(); got != 4 {
		t.Fatalf("outstanding = %d with 4 resident entries; want 4", got)
	}
	// A reader holds the body across an eviction of its entry.
	e, ok := c.Get("b")
	if !ok {
		t.Fatal("want /b resident")
	}
	c.Remove("b")
	if e.Body == nil {
		t.Fatal("reader's body recycled while still referenced")
	}
	e.Release()
	for _, k := range []string{"a", "c", "d", "e"} {
		c.Remove(k)
	}
	if got := p.Stats().Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after draining the cache; want 0", got)
	}
}

// TestGetBytesMatchesGet pins that the byte-key lookup is the same
// lookup: same entry, same policy accounting, reference acquired.
func TestGetBytesMatchesGet(t *testing.T) {
	c, err := New(Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("http://example.com/doc/%d", i)
		doc := &policy.Doc{Key: key, Size: 64}
		c.Insert(key, NewEntry(doc, []byte(key), "", 200, time.Time{}))
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("http://example.com/doc/%d", i)
		e1, ok1 := c.Get(key)
		e2, ok2 := c.GetBytes([]byte(key))
		if !ok1 || !ok2 || e1 != e2 {
			t.Fatalf("GetBytes(%q) = (%p,%v); Get = (%p,%v)", key, e2, ok2, e1, ok1)
		}
		if e1.Refs() < 3 { // cache ref + the two just acquired
			t.Fatalf("refs = %d; want >= 3", e1.Refs())
		}
		e1.Release()
		e2.Release()
	}
	if _, ok := c.GetBytes([]byte("http://example.com/missing")); ok {
		t.Fatal("GetBytes hit on an absent key")
	}
}

// TestStructLiteralEntryStaysLegacySafe keeps the compatibility promise:
// entries built without the constructors carry no pooled buffer, so
// Acquire/Release are pure accounting and the body survives release.
func TestStructLiteralEntryStaysLegacySafe(t *testing.T) {
	c, err := New(Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Doc: &policy.Doc{Key: "legacy", Size: 3}, Body: []byte("abc")}
	c.Insert("legacy", e)
	got, ok := c.Get("legacy")
	if !ok {
		t.Fatal("want resident")
	}
	c.Remove("legacy")
	got.Release()
	if string(e.Body) != "abc" {
		t.Fatalf("GC-owned body must survive release; got %q", e.Body)
	}
	ct, length := got.HeaderSlices()
	if ct != nil || length != nil {
		t.Fatalf("struct-literal entry pre-resolved headers = (%v, %v); want nil", ct, length)
	}
}
