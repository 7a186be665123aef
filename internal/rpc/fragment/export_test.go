package fragment

// SetBuildHook runs f in every open of p's session cache between building
// a session and binding it (pmap.Map.SetBuildHook).
func (p *Protocol) SetBuildHook(f func()) { p.active.SetBuildHook(f) }
