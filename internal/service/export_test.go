package service

import "time"

// SetClock replaces the clock that stamps each refreshed epoch's as-of
// time, so tests outside the package (which can import cluster) can pin
// the bytes an epoch serves.
func SetClock(s *Server, now func() time.Time) { s.now = now }
