//go:build !unix

package serve

// syncDir cannot fsync a directory here, so the rename alone stands.
func syncDir(string) error { return nil }
