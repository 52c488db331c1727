// The daemon under test as a child process: `dquag serve --port 0`.

#ifndef PERFBENCH_HARNESS_DAEMON_PROCESS_H_
#define PERFBENCH_HARNESS_DAEMON_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class DaemonProcess {
 public:
  /// Starts `binary serve --port 0 <args...>` with its output in
  /// `log_path`, and waits (up to 60 s) for the "listening on" line that
  /// carries the ephemeral port.
  static dquag::StatusOr<std::unique_ptr<DaemonProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  /// Stops the daemon if it is still running.
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int port() const { return port_; }

  /// Peak resident set (VmHWM) of the daemon so far, in MiB; 0 if
  /// unreadable.
  double PeakRssMb() const;

  /// SIGTERM, then waits for exit (SIGKILL after 20 s). Returns the exit
  /// status as waitpid reports it, or -1 if it had to be killed.
  int Stop();

 private:
  DaemonProcess(pid_t pid, int port) : pid_(pid), port_(port) {}

  pid_t pid_ = -1;
  int port_ = 0;
};

/// VmHWM of a process from /proc/<pid>/status ("self" for this process),
/// in MiB; 0 if unreadable.
double PeakRssMbOf(const std::string& pid);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_DAEMON_PROCESS_H_
