// Sporadic RTA driver (paper 4.2): a CPU-bound job triggered by an external
// TCP request from a client on another host. The client's inter-arrival
// times are uniform in [ia_lo, ia_hi]; the network adds a small delay which
// the paper measures at 19 us at the 99.9th percentile and excludes from the
// reported latencies (we model it but measure from guest-side arrival).

#ifndef SRC_WORKLOADS_SPORADIC_H_
#define SRC_WORKLOADS_SPORADIC_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/guest/guest_os.h"
#include "src/sim/simulator.h"

namespace rtvirt {

struct NetworkModel {
  TimeNs base_delay = Us(8);
  TimeNs jitter = Us(6);  // Uniform extra delay in [0, jitter].

  TimeNs Sample(Rng& rng) const { return base_delay + rng.UniformTime(0, jitter); }
};

class SporadicRta : public EventOwner {
 public:
  SporadicRta(GuestOs* guest, std::string name, RtaParams params, Rng rng,
              TimeNs ia_lo = Ms(100), TimeNs ia_hi = Sec(1), NetworkModel net = {});

  // Registers at `start` and lets the client send `max_requests` requests.
  void Start(TimeNs start, uint64_t max_requests);

  Task* task() const { return task_; }
  int admission_result() const { return admission_result_; }
  uint64_t requests_sent() const { return requests_sent_; }

 private:
  enum EventKind : uint32_t {
    kEvRegister = 1,
    kEvArrival = 2,  // A request reaches the guest after its network delay.
    kEvSend = 3,     // The client sends its next request.
  };
  void OnEvent(uint32_t kind, uint64_t payload) override;
  void Register();
  void ClientSend();

  GuestOs* guest_;
  Task* task_;
  RtaParams params_;
  Rng rng_;
  TimeNs ia_lo_;
  TimeNs ia_hi_;
  NetworkModel net_;
  uint64_t max_requests_ = 0;
  uint64_t requests_sent_ = 0;
  int admission_result_ = kGuestErrInvalid;
};

}  // namespace rtvirt

#endif  // SRC_WORKLOADS_SPORADIC_H_
