//! The component model: kinds, specifications and the registry.
//!
//! Mirrors the J2EE taxonomy the paper works with (§2.2): web components
//! (servlets/JSPs), stateful and stateless session beans, entity beans and
//! message-driven beans. Entity components carry the backing table so the
//! container can derive invalidation and update-propagation wiring
//! automatically — the §5 "pattern implementation automation" thesis.

use std::collections::HashMap;

use mutsvc_relstore::TableId;

/// Identifies a logical component within a [`ComponentRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// Dense index of the component.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The component taxonomy of the paper's §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Servlets, JSPs and web-tier JavaBeans: the client-facing tier,
    /// instantiated independently on every server that accepts HTTP traffic.
    Web,
    /// Per-client conversational state (`ShoppingCart`), deployable at the
    /// client's entry server because it is never shared.
    StatefulSession,
    /// Stateless services and façades; freely replicable.
    StatelessSession,
    /// Shared transactional state backed by a database table. Has one
    /// read-write primary and optionally read-only replicas (§4.3).
    Entity,
    /// Asynchronous subscriber applying pushed updates (§4.5).
    MessageDriven,
}

impl ComponentKind {
    /// Whether instances of this kind hold shared state that must stay
    /// consistent across nodes.
    pub fn is_shared_state(self) -> bool {
        matches!(self, ComponentKind::Entity)
    }
}

/// Static description of one logical component.
#[derive(Debug, Clone)]
pub struct ComponentSpec {
    /// Unique component name (`"Catalog"`, `"ItemEJB"`, …).
    pub name: String,
    /// Taxonomy kind.
    pub kind: ComponentKind,
    /// For entities: the backing table.
    pub table: Option<TableId>,
}

/// All logical components of an application.
#[derive(Debug, Clone, Default)]
pub struct ComponentRegistry {
    specs: Vec<ComponentSpec>,
    by_name: HashMap<String, ComponentId>,
}

impl ComponentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a non-entity component.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or when `kind` is [`ComponentKind::Entity`]
    /// (use [`Self::register_entity`]).
    pub fn register(&mut self, name: &str, kind: ComponentKind) -> ComponentId {
        assert!(
            kind != ComponentKind::Entity,
            "entities must be registered with register_entity"
        );
        self.push(name, kind, None)
    }

    /// Registers an entity component backed by `table`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn register_entity(&mut self, name: &str, table: TableId) -> ComponentId {
        self.push(name, ComponentKind::Entity, Some(table))
    }

    fn push(&mut self, name: &str, kind: ComponentKind, table: Option<TableId>) -> ComponentId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate component {name}"
        );
        let id = ComponentId(self.specs.len());
        self.specs.push(ComponentSpec {
            name: name.to_string(),
            kind,
            table,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// The specification of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this registry.
    pub fn spec(&self, id: ComponentId) -> &ComponentSpec {
        &self.specs[id.0]
    }

    /// Looks a component up by name.
    pub fn by_name(&self, name: &str) -> Option<ComponentId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when no components are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates all component ids.
    pub fn ids(&self) -> impl Iterator<Item = ComponentId> + '_ {
        (0..self.specs.len()).map(ComponentId)
    }

    /// All entity components backed by `table`.
    pub fn entities_of_table(&self, table: TableId) -> Vec<ComponentId> {
        self.ids()
            .filter(|&id| self.specs[id.0].table == Some(table))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_relstore::DatabaseBuilder;

    #[test]
    fn register_and_lookup() {
        let mut db = DatabaseBuilder::new();
        let t = db.table("item", &["name"], 10);
        let mut reg = ComponentRegistry::new();
        let web = reg.register("main.jsp", ComponentKind::Web);
        let item = reg.register_entity("ItemEJB", t);
        assert_eq!(reg.by_name("main.jsp"), Some(web));
        assert_eq!(reg.spec(item).table, Some(t));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.entities_of_table(t), vec![item]);
        assert!(reg.by_name("nope").is_none());
    }

    #[test]
    fn kind_classification() {
        assert!(ComponentKind::Entity.is_shared_state());
        assert!(!ComponentKind::StatefulSession.is_shared_state());
        assert!(!ComponentKind::Web.is_shared_state());
    }

    #[test]
    #[should_panic(expected = "duplicate component")]
    fn duplicate_name_panics() {
        let mut reg = ComponentRegistry::new();
        reg.register("x", ComponentKind::Web);
        reg.register("x", ComponentKind::Web);
    }

    #[test]
    #[should_panic(expected = "register_entity")]
    fn entity_via_register_panics() {
        let mut reg = ComponentRegistry::new();
        reg.register("e", ComponentKind::Entity);
    }
}
