package mpcons

// RegisterWire registers the consensus wire message types with reg
// (see internal/transport). Covers Synod, Ben-Or, and condition-based
// consensus so any of the package's protocols can run over a real
// transport.
func RegisterWire(reg func(any)) {
	reg(synPrepare{})
	reg(synPromise{})
	reg(synAccept{})
	reg(synAccepted{})
	reg(synReject{})
	reg(synDecide{})
	reg(boReport{})
	reg(boAux{})
	reg(boDecide{})
	reg(condVal{})
	reg(condDecide{})
	reg(synAsk{})
}
