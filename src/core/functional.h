// Forwarding header: HostTensor, ReferenceExecute and RandomHostTensor live
// in host_tensor.h. Include that instead; this name remains only for
// existing includers.

#ifndef T10_SRC_CORE_FUNCTIONAL_H_
#define T10_SRC_CORE_FUNCTIONAL_H_

#include "src/core/host_tensor.h"

#endif  // T10_SRC_CORE_FUNCTIONAL_H_
