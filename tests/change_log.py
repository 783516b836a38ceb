"""A change hook for tests that speaks both halves of the protocol."""


class ChangeLog:
    """Records every world change as ``(op, entity_id, component, payload)``.

    Row events are logged as they arrive; a ``set_column`` column event
    is logged as one ``"update"`` entry per changed cell, in write order.
    """

    def __init__(self):
        self.events = []

    def __call__(self, op, entity_id, component, payload):
        self.events.append((op, entity_id, component, payload))

    def on_column_change(self, component, field, ids, values):
        self.events.extend(
            ("update", eid, component, {field: value})
            for eid, value in zip(ids, values)
        )
