// Names the calling thread, so `top -H`, `ps -L` and
// /proc/<pid>/task/*/comm show which of the gateway's threads (sift-net,
// sift-worker-N, sift-journal, sift-ckpt) spends the CPU.
#pragma once

#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace sift::fleet {

/// Linux keeps at most 15 bytes of a thread name, so longer names are cut
/// there. A no-op on other platforms.
inline void name_this_thread(const std::string& name) {
#if defined(__linux__)
  (void)pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace sift::fleet
