package selectp

// Waiting reports how many callers are parked for a channel.
func (s *Session) Waiting() int { return s.pool.Waiting() }
