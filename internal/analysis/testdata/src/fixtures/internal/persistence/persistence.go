// Package persistence provides the path-sink entry points the
// tenantisolation fixtures call; the rule matches them by package
// suffix and function name.
package persistence

// Service is the fixture recording service.
type Service struct{ dir string }

// Open opens a persistence directory.
func Open(dir string) *Service { return &Service{dir: dir} }

// OpenFS opens a persistence directory through a file layer.
func OpenFS(dir string, fs any) *Service { return &Service{dir: dir} }

// Journal is the fixture decision log.
type Journal struct{ path string }

// OpenJournal opens a journal under dir.
func OpenJournal(dir string) *Journal { return &Journal{path: dir} }
