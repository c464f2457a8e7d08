// Machine-process launcher: fork one endpoint per machine.
//
// The child continues from fork() straight into proc::machine_endpoint_main
// and _exit()s with its return code. That is only safe while the forking
// process is effectively single-threaded — which is why SocketTransport
// forks every child *before* starting any of its own threads.
//
// The child is a real OS process with its own pid: it can be SIGKILLed, it
// shows up in `ps`, and its death is what the supervisor's heartbeat/EOF
// detection turns into the protocol's crash path.
#pragma once

#include "proc/endpoint.hpp"

namespace paso::proc {

/// Launch one machine process. Returns the child pid, or -1 on failure.
int spawn_machine_process(const EndpointConfig& endpoint);

}  // namespace paso::proc
