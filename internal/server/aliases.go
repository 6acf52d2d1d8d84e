package server

import (
	"coterie/internal/client"
	"coterie/internal/transport"
)

// The client side of the protocol lives in internal/client. These names
// remain only because the benchmark harness (bench/, its own module)
// imports them from here; nothing in this module uses them, and the
// harness's move to internal/client deletes this file.
type (
	Client      = client.Client
	ServerError = transport.RemoteError
	UDPChannel  = client.UDPChannel
	UDPStats    = client.UDPStats
	LiveConfig  = client.LiveConfig
	LiveReport  = client.LiveReport
)

var (
	Dial    = client.Dial
	DialUDP = client.DialUDP
	RunLive = client.RunLive
)
