// A closed input stream is at its end: atEnd() after close() answers true
// at runtime, so the protocol table makes it legal (no DS105).
#include "dstream/dstream.h"

bool drained() {
  pcxx::ds::IStream in("particles.ds");
  in.read();
  double x = 0;
  in >> x;
  in.close();
  return in.atEnd();
}
