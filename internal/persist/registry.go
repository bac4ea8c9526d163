package persist

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// LoadSaver is the structural snapshot contract solver packages implement;
// it is the same method set as mips.Persister, declared here so persist
// stays import-free of the solver layers (solver packages import persist,
// never the reverse).
type LoadSaver interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]func() LoadSaver{}
)

// Register installs the factory constructing an empty solver of the given
// snapshot kind, ready for Load. Solver packages call it from init();
// duplicate kinds are programmer errors and panic.
func Register(kind string, factory func() LoadSaver) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("persist: duplicate snapshot kind %q", kind))
	}
	registry[kind] = factory
}

// NewByKind constructs an empty solver for the given snapshot kind. The
// kind is known only if its package has been imported (directly, or via the
// root optimus package, which imports them all).
func NewByKind(kind string) (LoadSaver, error) {
	regMu.RLock()
	factory := registry[kind]
	regMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("persist: unknown snapshot kind %q (is its package imported?)", kind)
	}
	return factory(), nil
}

// Kinds returns the registered snapshot kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LoadAny takes r to EOF, constructs the solver of the stream's kind through
// the registry, and loads it from the same bytes in place (FromBytes), so
// the stream is copied at most once. Nothing after the snapshot may be read
// from r.
func LoadAny(r io.Reader) (LoadSaver, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: read stream: %w", err)
	}
	kind, _, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	s, err := NewByKind(kind)
	if err != nil {
		return nil, err
	}
	if err := s.Load(FromBytes(data)); err != nil {
		return nil, err
	}
	return s, nil
}
