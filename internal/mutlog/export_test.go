package mutlog

import (
	"fmt"

	"optimus/internal/mips"
)

// Direct adapts a bare mutator into an Applier so the tests can drive a log
// without a serving layer. The mutator must report its corpus size
// (mips.Sized). The adapter provides no query serialization; the tests keep
// flushes exclusive of in-flight queries.
func Direct(m mips.ItemMutator) (Applier, error) {
	s, ok := m.(mips.Sized)
	if !ok {
		return nil, fmt.Errorf("mutlog: %T does not report its corpus size (mips.Sized)", m)
	}
	return &direct{mut: m, sized: s}, nil
}

type direct struct {
	mut   mips.ItemMutator
	sized mips.Sized
}

func (d *direct) Mutate(fn func(mips.ItemMutator) error) error { return fn(d.mut) }
func (d *direct) NumItems() int                                { return d.sized.NumItems() }
