// Human- and machine-readable rendering of wire responses, driven by the
// same field lists (protocol.h) as the codec, so a new field or response
// type prints without touching this file.

#ifndef PINOCCHIO_SERVE_RENDER_H_
#define PINOCCHIO_SERVE_RENDER_H_

#include <ostream>

#include "serve/protocol.h"

namespace pinocchio {
namespace serve {

/// Writes `response` followed by a newline.
///
/// JSON: one object, `{"type": "<response type>", <field>: <value>, ...}`
/// in wire order; vectors are arrays of objects, enums their names,
/// non-finite doubles null.
///
/// Text: `type: <response type>`, then one `name: value` line per field;
/// each vector element is one line, `name[i]: field=value ...`, and an
/// empty vector prints as `name: []`.
void RenderResponse(const Response& response, bool json, std::ostream& out);

}  // namespace serve
}  // namespace pinocchio

#endif  // PINOCCHIO_SERVE_RENDER_H_
