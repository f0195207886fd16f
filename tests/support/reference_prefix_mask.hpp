// Reference prefix canonicalisation for the differential tests: clear
// the host bits one at a time with IpAddress::WithBit. The Prefix
// constructor masks whole words and bytes and must give the same
// address for every family and length.
#pragma once

#include "cellspot/netaddr/ip_address.hpp"

namespace cellspot::test_support {

inline netaddr::IpAddress MaskAddressPerBit(const netaddr::IpAddress& addr, int length) {
  netaddr::IpAddress out = addr;
  for (int i = length; i < addr.bit_width(); ++i) out = out.WithBit(i, false);
  return out;
}

}  // namespace cellspot::test_support
