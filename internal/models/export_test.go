package models

import (
	"math"
	"reflect"
	"unsafe"

	"edgetta/internal/tensor"
)

// PoisonArena poisons m's arena (see poison) for package models_test,
// which cannot reach it.
func PoisonArena(m *Model) int { return poison(m.arena) }

// poison fills every buffer the arena holds, handed out or not, with NaN,
// and arms the arena to do the same to each buffer the moment it is
// released during the passes that follow: a layer that reads an
// activation after it went back — one it should have held — reads NaN at
// once, not only after the buffer is handed out again. The arena keeps no
// walk of its own for this; the test reads its one list and sets its one
// hook by name and fails loudly if either is renamed.
func poison(a *tensor.Arena) (buffers int) {
	if a == nil { // before the model's first pass
		return 0
	}
	arena := reflect.ValueOf(a).Elem()
	hook := arena.FieldByName("onRelease")
	reflect.NewAt(hook.Type(), unsafe.Pointer(hook.UnsafeAddr())).Elem().Set(reflect.ValueOf(fillNaN))
	bufs := arena.FieldByName("bufs")
	for i := 0; i < bufs.Len(); i++ {
		data := bufs.Index(i).Elem().FieldByName("Data")
		fillNaN(unsafe.Slice((*float32)(data.UnsafePointer()), data.Len()))
	}
	return bufs.Len()
}

func fillNaN(s []float32) {
	nan := float32(math.NaN())
	for j := range s {
		s[j] = nan
	}
}
