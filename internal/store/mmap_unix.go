//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only and shared, so every process
// opening the same snapshot serves queries from one kernel page cache.
// The returned release func unmaps; after calling it any data still
// aliasing the mapping (tags, node values, synopsis arrays)
// must no longer be referenced.
func mmapFile(f *os.File, size int) (data []byte, release func() error, err error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

const mmapSupported = true
