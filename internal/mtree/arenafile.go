package mtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"mcost/internal/pager"
)

// Arena slab file: the kernel slabs serialized so they can be
// memory-mapped back with zero parsing. It holds only what the mapping
// serves — the node slab stays in memory. Layout (all little-endian):
//
//	[0:8)    magic "MCARENA2"
//	[8:16)   0x0807060504030201 as uint64 — endianness/width check
//	[16]     kind (arenaVector / arenaEdit / arenaHamming)
//	[17:20)  zero padding
//	[20:24)  uint32 dim (vector kinds; else 0)
//	[24:28)  uint32 entry count
//	[28:32)  zero padding
//	[32:40)  uint64 string-blob length (string kinds; else 0)
//	[40:64)  zero padding
//
// then, at offset 64 (so the float64 view is an aligned load):
//
//	vecs       entry count × dim × f64        (arenaVector)
//	strOff     (entry count + 1) × u32        (string kinds)
//	strBlob    string-blob bytes              (string kinds)
//
// Lifetime/aliasing rules (see DESIGN.md): after opening, the vector
// slab is a view INTO the mapping, so a thaw keeps the mapping alive and
// only Arena.Close unmaps. Result objects are the tree's own objects and
// never alias the map; the string blob is copied out at open (one
// allocation). Generic-kind arenas (custom domains) have no file format
// and must freeze in memory.

const (
	arenaMagic  = "MCARENA2"
	arenaEndian = uint64(0x0807060504030201)
	arenaHdrLen = 64
)

// remap serializes the built arena to path (a private unlinked temp
// file when empty) and swaps the kernel slabs for read-only views of
// the map.
func (a *Arena) remap(path string) error {
	if a.kind == arenaGeneric {
		return fmt.Errorf("mtree: arena mmap supports vector, edit, and hamming layouts; %q objects must freeze in memory", a.space.Name)
	}
	remove := false
	if path == "" {
		f, err := os.CreateTemp("", "mcost-arena-*.slab")
		if err != nil {
			return err
		}
		path = f.Name()
		if err := f.Close(); err != nil {
			return err
		}
		remove = true
	}
	if err := a.writeSlabFile(path); err != nil {
		return err
	}
	m, err := pager.MapFile(path)
	if err != nil {
		return err
	}
	if remove {
		// The mapping keeps the inode alive; the name can go away now.
		if err := os.Remove(path); err != nil {
			_ = m.Close()
			return err
		}
	}
	if err := a.attachMapping(m); err != nil {
		_ = m.Close()
		return err
	}
	return nil
}

// entries returns the number of slab entries.
func (a *Arena) entries() int {
	if a.kind == arenaVector {
		return len(a.vecs) / a.dim
	}
	return len(a.strs)
}

func (a *Arena) writeSlabFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)

	blobLen := 0
	for _, s := range a.strs {
		blobLen += len(s)
	}
	hdr := make([]byte, arenaHdrLen)
	copy(hdr, arenaMagic)
	binary.LittleEndian.PutUint64(hdr[8:], arenaEndian)
	hdr[16] = byte(a.kind)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(a.dim))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(a.entries()))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(blobLen))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var buf [8]byte
	for _, x := range a.vecs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	if a.kind == arenaEdit || a.kind == arenaHamming {
		off := uint32(0)
		for i := 0; i <= len(a.strs); i++ {
			binary.LittleEndian.PutUint32(buf[:4], off)
			if _, err := w.Write(buf[:4]); err != nil {
				return err
			}
			if i < len(a.strs) {
				off += uint32(len(a.strs[i]))
			}
		}
		for _, s := range a.strs {
			if _, err := w.WriteString(s); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// attachMapping validates the slab file and swaps the arena's kernel
// slabs for views into it.
func (a *Arena) attachMapping(m *pager.Mapping) error {
	data := m.Data
	if len(data) < arenaHdrLen || string(data[:8]) != arenaMagic {
		return fmt.Errorf("mtree: not an arena slab file")
	}
	if binary.LittleEndian.Uint64(data[8:]) != arenaEndian {
		return fmt.Errorf("mtree: arena slab file has foreign byte order")
	}
	kind := arenaKind(data[16])
	dim := int(binary.LittleEndian.Uint32(data[20:]))
	ne := int(binary.LittleEndian.Uint32(data[24:]))
	blobLen := int(binary.LittleEndian.Uint64(data[32:]))
	if kind != a.kind || dim != a.dim || ne != a.entries() {
		return fmt.Errorf("mtree: arena slab file does not match the frozen tree (kind %d dim %d entries %d)", kind, dim, ne)
	}
	body := data[arenaHdrLen:]
	need := ne * dim * 8
	if a.kind != arenaVector {
		need = (ne+1)*4 + blobLen
	}
	if len(body) < need {
		return fmt.Errorf("mtree: arena slab file truncated: %d body bytes, want %d", len(body), need)
	}
	if a.kind == arenaVector {
		if need > 0 {
			a.vecs = unsafe.Slice((*float64)(unsafe.Pointer(&body[0])), ne*dim)
		}
	} else {
		offs := unsafe.Slice((*uint32)(unsafe.Pointer(&body[0])), ne+1)
		// One copy of the whole blob: substrings of blob share it and are
		// ordinary immutable Go strings, independent of the mapping.
		blob := string(body[(ne+1)*4 : need])
		for e := range a.strs {
			a.strs[e] = blob[offs[e]:offs[e+1]]
		}
	}
	a.mapping = m
	return nil
}
