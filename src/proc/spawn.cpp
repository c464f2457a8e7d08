#include "proc/spawn.hpp"

#include <unistd.h>

namespace paso::proc {

int spawn_machine_process(const EndpointConfig& endpoint) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid > 0) return static_cast<int>(pid);

  // Child. Never return into the caller's stack: run the endpoint and _exit
  // so no parent-side destructors run here.
  ::_exit(machine_endpoint_main(endpoint));
}

}  // namespace paso::proc
