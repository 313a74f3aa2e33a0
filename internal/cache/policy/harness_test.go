package policy

// testEntry is what a cache entry looks like to a policy: a key with the
// policy's Handle embedded.
type testEntry struct {
	Handle
	key []byte
}

func (e *testEntry) PolicyKey() []byte { return e.key }

// byKey drives a handle-based Policy through string keys the way a cache
// does: it owns the resident entries and finds them by key, so tests can
// speak in keys and compare against the string-keyed reference policies.
type byKey struct {
	Policy
	resident map[string]*testEntry
}

func newByKey(p Policy) *byKey { return &byKey{Policy: p, resident: map[string]*testEntry{}} }

// OnInsert admits key; a key already resident is touched instead, which is
// what a cache's upsert does.
func (b *byKey) OnInsert(key string) {
	if e, ok := b.resident[key]; ok {
		b.Policy.OnAccess(&e.Handle)
		return
	}
	e := &testEntry{key: []byte(key)}
	e.Init(e)
	b.resident[key] = e
	b.Policy.OnInsert(&e.Handle)
}

func (b *byKey) OnAccess(key string) {
	if e, ok := b.resident[key]; ok {
		b.Policy.OnAccess(&e.Handle)
	}
}

func (b *byKey) OnMiss(key string) { b.Policy.OnMiss([]byte(key)) }

func (b *byKey) OnRemove(key string) {
	if e, ok := b.resident[key]; ok {
		b.Policy.OnRemove(&e.Handle)
		delete(b.resident, key)
	}
}

func (b *byKey) Evict() (string, bool) {
	h := b.Policy.Evict()
	if h == nil {
		return "", false
	}
	key := string(h.Owner().PolicyKey())
	delete(b.resident, key)
	return key, true
}
